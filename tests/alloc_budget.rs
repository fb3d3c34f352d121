//! Allocation budget: a pipeline stage costs a handful of buffers, not one
//! per rank. A 2 048-rank scan → join → FILTER → APPLY over a small graph
//! must stay under a per-step budget in every step, where one per-rank
//! batch per stage would make thousands of allocations.
//!
//! The budget is a bound, not an exact figure. What a step allocates on
//! one worker is per stage or per row — and the graph has few rows — and
//! the same on every run. On top of that, the shard pool wakes up to
//! `available_parallelism() - 1` resident helper threads in every phase
//! that outlasts its wake patience (which depends on timing), and each
//! helper that joins brings its result runs and its worker state (scan
//! parts, join scratch); the first such phase of the process also starts
//! the helpers. So the budget is a per-step allowance plus one
//! per helper: `ranks / 8` on two workers, and below one allocation per
//! rank up to 29 workers.
//!
//! A FILTER row whose prepared arguments the instance's memo already
//! holds runs no branch kernel and decodes nothing — one `sw_similarity`
//! call, and the whole NCNPR chain of `sw_similarity`, `pic50` and `dtba` —
//! and an APPLY row whose ligand the memo has docked does not dock again:
//! all are pinned at their exact counts.
//!
//! Encoding a docking result for the cache reserves its exact length, so
//! a non-empty pose costs its buffer and the shared copy, never a growth.
//!
//! Canonicalising a `serve-mix` lookup — what every prepared-cache miss
//! of the service pays — is pinned at a ceiling too, and so is a service
//! submission that hits the prepared cache plus the one-slice scheduler
//! round that follows it.
//!
//! The counter sees every thread, so the tests of this file take one lock
//! and no other test's allocations are counted.

use ids::chem::sequence::ProteinSequence;
use ids::chem::{parse_smiles, Element, Structure3D, Vec3};
use ids::core::binding::RowBindings;
use ids::core::engine::StepOutcome;
use ids::core::iql::{fragment, parse_query, FragmentSpec};
use ids::core::workflow::{
    decode_docking_result, encode_docking_result, register_workflow_udfs, Target, WorkflowModels,
};
use ids::core::{IdsConfig, IdsInstance};
use ids::graph::{Dictionary, Term};
use ids::models::DockingEngine;
use ids::obs::MetricsRegistry;
use ids::serve::{QueryService, ServeConfig, TenantConfig};
use ids::simrt::rng::SplitMix64;
use ids::simrt::Topology;
use ids::udf::expr::{CmpOp, EvalCtx};
use ids::udf::{ArgMemo, Expr, ProfileTable, UdfOutput, UdfRegistry, UdfValue};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex, PoisonError};

/// The system allocator, counting every allocation (and reallocation) on
/// every thread.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` with the caller's arguments,
// so `System`'s guarantees hold; the counter has no effect on them.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Held by each test of this file while it counts.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

/// 64 nodes × 32 ranks, the paper's NCNPR scale.
const RANKS: u32 = 2048;

/// Allocations a step may make on one worker: the largest step measured
/// on one worker (debug and release alike: 27, 97, 139, 138 and 19) plus
/// a 15 % margin for what a toolchain's collections allocate.
const STEP_ALLOWANCE: u64 = 160;

/// Allocations each helper thread may add to a step, over all of the
/// step's pool phases. Measured with the pool at two, four and eight
/// workers: at most 45 per helper (`pattern1`, a scan and a join phase,
/// on two workers), and at most 251 for a whole step on eight.
const HELPER_ALLOWANCE: u64 = 64;

/// Allocations of one `sw_similarity(?seq) >= 0.9` row whose sequence the
/// memo holds, measured in debug and release: the lookup clones an `Arc`,
/// the call returns an `F64`, and the profile entry already exists.
const MEMO_HIT_ROW: u64 = 0;

/// Allocations of one cache-free `sw_similarity(?seq) >= ? && pic50(?smiles,
/// ?protein) > ? && dtba(?seq, ?smiles) >= ?` row, every prepared position
/// of which the memo holds, measured in debug and release: as for
/// [`MEMO_HIT_ROW`], each call taking its forms in one read of the memo,
/// and `dtba`'s dense head consuming each hidden unit as it makes it.
const NCNPR_MEMO_HIT_ROW: u64 = 0;

/// Allocations of one cache-free `vina_docking(?smiles)` APPLY row whose
/// ligand the memo holds and has docked, measured in debug and release:
/// as for [`MEMO_HIT_ROW`], and the docked cell returns its energy.
const DOCKING_MEMO_HIT_ROW: u64 = 0;

/// Allocations of `encode_docking_result` on a non-empty pose: the `Vec`
/// it fills and the `Arc` the `Bytes` copy it into. A reserve one byte
/// short per atom made a third, growing the `Vec`.
const DOCKING_ENCODE: u64 = 2;

/// Allocations of `fragment(Bgp)` + `fragment(Where)` on
/// [`SERVE_FILTER_LOOKUP`], measured in debug and release: per fragment,
/// its text and rename map (one node, two strings a variable) and the
/// canonicaliser's working state (interned variables, lowered atoms,
/// colors, sort orders). The canonicaliser that rendered a string per atom
/// and per sort comparison made 699.
const SERVE_LOOKUP_FRAGMENTS: u64 = 34;

/// Allocations of a [`QueryService::submit`] of [`QUERY`] that hits the
/// prepared cache, plus one `run_round` that steps the new run's first
/// stage (a 2 048-rank scan): 32 on one worker, in debug and release.
/// Each helper thread may add [`HELPER_ALLOWANCE`], as for a step.
const SERVE_HIT_SUBMIT_AND_SLICE: u64 = 32;

/// `serve-mix`'s `pic50` FILTER lookup (`crates/bench/src/bin/perf/serve.rs`).
const SERVE_FILTER_LOOKUP: &str = "SELECT ?c ?s WHERE { ?c <chembl:inhibits> <up:B0_3> . \
                                   ?c <chembl:smiles> ?s . FILTER(pic50(?s) > 0.0) }";

/// Entities `e:0..ENTITIES`, each with an integer `val` and a `next`
/// entity: two patterns joined on `?e`, a row per entity.
const ENTITIES: i64 = 16;

const QUERY: &str = "SELECT ?e ?n ?s WHERE { ?e <val> ?v . ?e <next> ?n . \
                     FILTER(keep(?v) > 0.5) } APPLY score(?v) AS ?s";

fn launch() -> IdsInstance {
    launch_on(RANKS / 32)
}

/// [`launch`] on `nodes` nodes of 32 ranks.
fn launch_on(nodes: u32) -> IdsInstance {
    let mut cfg = IdsConfig::laptop(nodes * 32, 7);
    cfg.topology = Topology::new(nodes, 32);
    let inst = IdsInstance::launch(cfg);
    let ds = inst.datastore();
    for i in 0..ENTITIES {
        let e = Term::iri(format!("e:{i}"));
        ds.add_fact(&e, &Term::iri("val"), &Term::Int(i));
        ds.add_fact(&e, &Term::iri("next"), &Term::iri(format!("e:{}", (i + 1) % ENTITIES)));
    }
    ds.build_indexes();
    let int = |args: &[UdfValue]| args.first().and_then(UdfValue::as_f64).unwrap_or(0.0);
    let reg = inst.registry();
    reg.register_static(
        "keep",
        Arc::new(move |args: &[UdfValue]| {
            UdfOutput::new(UdfValue::F64(f64::from(int(args) as i32 % 3 != 0)), 1.0e-3)
        }),
    )
    .unwrap();
    reg.register_static(
        "score",
        Arc::new(move |args: &[UdfValue]| UdfOutput::new(UdfValue::F64(int(args) * 0.5), 2.0e-3)),
    )
    .unwrap();
    inst
}

#[test]
fn every_step_of_a_2048_rank_query_allocates_a_few_buffers_per_stage_and_worker() {
    let _counting = ONE_AT_A_TIME.lock().unwrap_or_else(PoisonError::into_inner);
    let mut inst = launch();
    // Warm-up: first-use allocations (metric series, minted terms,
    // profiles, the prepared plan) are not the steady state.
    let warm = inst.query(QUERY).unwrap();
    let want_rows = warm.solutions.len();
    assert!(want_rows > 0 && want_rows < ENTITIES as usize);

    let mut run = inst.prepare_run(QUERY, false).unwrap();
    let mut steps: Vec<(String, u64)> = Vec::new();
    let rows = loop {
        let label = run.phase_label();
        let before = ALLOCATIONS.load(Relaxed);
        let outcome = inst.step_run(&mut run).unwrap();
        steps.push((label, ALLOCATIONS.load(Relaxed) - before));
        if let StepOutcome::Done(out) = outcome {
            break out.solutions.len();
        }
    };
    assert_eq!(rows, want_rows);
    let labels: Vec<&str> = steps.iter().map(|(l, _)| l.as_str()).collect();
    assert_eq!(labels, ["pattern0", "pattern1", "where-filter", "stage0", "gather"]);
    // The pool's worker count: the host's available parallelism.
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get() as u64);
    let budget = STEP_ALLOWANCE + HELPER_ALLOWANCE * (workers - 1);
    eprintln!("allocations per step on {workers} workers (budget {budget}): {steps:?}");
    for (label, allocations) in &steps {
        assert!(
            *allocations < budget,
            "{label} made {allocations} allocations, budget {budget}: {steps:?}"
        );
    }
}

/// Allocations of each step of a warm run of [`QUERY`] on `nodes` nodes
/// of 32 ranks, by step label.
fn step_allocations(nodes: u32) -> Vec<(String, u64)> {
    let mut inst = launch_on(nodes);
    inst.query(QUERY).unwrap();
    let mut run = inst.prepare_run(QUERY, false).unwrap();
    let mut steps = Vec::new();
    loop {
        let label = run.phase_label();
        let before = ALLOCATIONS.load(Relaxed);
        let outcome = inst.step_run(&mut run).unwrap();
        steps.push((label, ALLOCATIONS.load(Relaxed) - before));
        if let StepOutcome::Done(_) = outcome {
            return steps;
        }
    }
}

#[test]
fn udf_steps_allocate_as_much_at_64_ranks_as_at_2048() {
    let _counting = ONE_AT_A_TIME.lock().unwrap_or_else(PoisonError::into_inner);
    // The FILTER (`where-filter`) and APPLY (`stage0`) steps: re-balance,
    // per-rank plans and the fan-out over every rank. On one worker what
    // they allocate is per stage, per worker or per row — the 16 rows
    // land on the same ranks at both sizes — never per rank.
    let udf_steps = |nodes| {
        let steps = step_allocations(nodes);
        let count = |label: &str| steps.iter().find(|(l, _)| l == label).map(|&(_, n)| n);
        (count("where-filter").unwrap(), count("stage0").unwrap())
    };
    let (small, large) = (udf_steps(2), udf_steps(RANKS / 32));
    eprintln!("where-filter, stage0 allocations: {small:?} at 64 ranks, {large:?} at {RANKS}");
    // Each pool helper that joins a phase brings its own worker state.
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get() as u64);
    let slack = HELPER_ALLOWANCE * (workers - 1);
    for (step, a, b) in [("where-filter", small.0, large.0), ("stage0", small.1, large.1)] {
        assert!(a.abs_diff(b) <= slack, "{step}: {a} at 64 ranks, {b} at {RANKS}");
    }
}

#[test]
fn a_filter_row_that_hits_the_memo_allocates_nothing() {
    let _counting = ONE_AT_A_TIME.lock().unwrap_or_else(PoisonError::into_inner);
    let mut rng = SplitMix64::new(7, 0x5eed);
    let target = Target::from_sequence("P29274", ProteinSequence::random(412, &mut rng));
    let registry = UdfRegistry::new();
    let dict = Arc::new(Dictionary::new());
    register_workflow_udfs(&registry, &dict, &target, WorkflowModels::paper_models(), None);
    let memo = ArgMemo::new(&MetricsRegistry::new());
    let filter = Expr::cmp(
        CmpOp::Ge,
        Expr::udf("sw_similarity", vec![Expr::var("seq")]),
        Expr::Const(UdfValue::F64(0.9)),
    );
    let vars = ["seq".to_string()];
    let row = [dict.str(&ProteinSequence::random(412, &mut rng).to_string_code())];
    let bindings = RowBindings::new(&vars, &row, &dict);
    let mut profiles = ProfileTable::new(1);
    profiles.intern("sw_similarity");
    let stage = memo.stage(&registry, profiles.columns());
    let mut eval = || {
        let mut cx = EvalCtx::new(&registry, profiles.row_mut(0)).with_memo(&stage);
        let kept = filter.eval_bool(&bindings, &mut cx).unwrap();
        (kept, cx.charged_secs)
    };
    // The first row prepares the sequence and makes its profile entry.
    let first = eval();
    let before = ALLOCATIONS.load(Relaxed);
    let hit = eval();
    let allocations = ALLOCATIONS.load(Relaxed) - before;
    eprintln!("allocations of a memo-hit sw_similarity FILTER row: {allocations}");
    assert_eq!(hit, first);
    assert_eq!(allocations, MEMO_HIT_ROW);
}

#[test]
fn a_full_ncnpr_filter_row_that_hits_the_memo_allocates_nothing() {
    let _counting = ONE_AT_A_TIME.lock().unwrap_or_else(PoisonError::into_inner);
    let mut rng = SplitMix64::new(7, 0xf11);
    let target = Target::from_sequence("P29274", ProteinSequence::random(412, &mut rng));
    let registry = UdfRegistry::new();
    let dict = Arc::new(Dictionary::new());
    register_workflow_udfs(&registry, &dict, &target, WorkflowModels::paper_models(), None);
    let memo = ArgMemo::new(&MetricsRegistry::new());
    // Thresholds every value passes, so the conjunction runs all three.
    let at_least = |udf: &str, args: &[&str]| {
        let args = args.iter().map(|v| Expr::var(*v)).collect();
        Expr::cmp(CmpOp::Ge, Expr::udf(udf, args), Expr::Const(UdfValue::F64(-1.0)))
    };
    let filter = Expr::And(vec![
        at_least("sw_similarity", &["seq"]),
        at_least("pic50", &["smiles", "protein"]),
        at_least("dtba", &["seq", "smiles"]),
    ]);
    let vars = ["seq".to_string(), "smiles".to_string(), "protein".to_string()];
    let row = [
        dict.str(&ProteinSequence::random(412, &mut rng).to_string_code()),
        dict.str("CC(=O)Oc1ccccc1C(=O)O"),
        dict.iri("up:P29274"),
    ];
    let bindings = RowBindings::new(&vars, &row, &dict);
    let mut profiles = ProfileTable::new(1);
    filter.for_each_udf(&mut |u| profiles.intern(u));
    let stage = memo.stage(&registry, profiles.columns());
    let mut eval = || {
        let mut cx = EvalCtx::new(&registry, profiles.row_mut(0)).with_memo(&stage);
        let kept = filter.eval_bool(&bindings, &mut cx).unwrap();
        (kept, cx.charged_secs)
    };
    // The first row prepares all five positions and makes the profile
    // entries.
    let first = eval();
    assert!(first.0, "every conjunct passes");
    let before = ALLOCATIONS.load(Relaxed);
    let hit = eval();
    let allocations = ALLOCATIONS.load(Relaxed) - before;
    eprintln!("allocations of a memo-hit sw_similarity/pic50/dtba FILTER row: {allocations}");
    assert_eq!(hit, first);
    drop(stage);
    for udf in ["sw_similarity", "pic50", "dtba"] {
        assert_eq!(profiles.row(0).get(udf).map(|p| p.calls), Some(2), "{udf} ran on both rows");
    }
    assert_eq!(allocations, NCNPR_MEMO_HIT_ROW);
}

#[test]
fn an_apply_row_whose_ligand_the_memo_docked_allocates_nothing() {
    let _counting = ONE_AT_A_TIME.lock().unwrap_or_else(PoisonError::into_inner);
    let mut rng = SplitMix64::new(7, 0xd0c);
    let target = Target::from_sequence("P29274", ProteinSequence::random(412, &mut rng));
    let registry = UdfRegistry::new();
    let dict = Arc::new(Dictionary::new());
    register_workflow_udfs(&registry, &dict, &target, WorkflowModels::paper_models(), None);
    let memo = ArgMemo::new(&MetricsRegistry::new());
    let apply = Expr::udf("vina_docking", vec![Expr::var("smiles")]);
    let vars = ["smiles".to_string()];
    let row = [dict.str("CC(=O)Oc1ccccc1C(=O)O")];
    let bindings = RowBindings::new(&vars, &row, &dict);
    let mut profiles = ProfileTable::new(1);
    profiles.intern("vina_docking");
    let stage = memo.stage(&registry, profiles.columns());
    let mut eval = || {
        let mut cx = EvalCtx::new(&registry, profiles.row_mut(0)).with_memo(&stage);
        let energy = apply.eval(&bindings, &mut cx).unwrap();
        (energy, cx.charged_secs)
    };
    // The first row prepares the ligand, docks it and makes its profile
    // entry.
    let first = eval();
    assert!(first.0.as_f64().is_some_and(f64::is_finite), "{first:?}");
    let before = ALLOCATIONS.load(Relaxed);
    let hit = eval();
    let allocations = ALLOCATIONS.load(Relaxed) - before;
    eprintln!("allocations of a memo-hit vina_docking APPLY row: {allocations}");
    assert_eq!(hit, first);
    assert_eq!(allocations, DOCKING_MEMO_HIT_ROW);
}

#[test]
fn encoding_a_docked_pose_reserves_its_exact_length() {
    let _counting = ONE_AT_A_TIME.lock().unwrap_or_else(PoisonError::into_inner);
    let mut receptor = Structure3D::new();
    for i in 0..10 {
        receptor.push(Element::C, Vec3::new(i as f64 * 2.0, 0.0, 0.0));
    }
    // One- and two-letter symbols: each atom's record is as long as its
    // symbol.
    let ligand = parse_smiles("CC(=O)Oc1ccc(Cl)cc1C(=O)O").unwrap();
    let result = DockingEngine::test_engine().dock(&receptor, &ligand);
    assert!(!result.pose.is_empty());
    // The least of a few repetitions, as for the canonicaliser below: the
    // harness's own thread can allocate inside the window.
    let allocations = (0..5)
        .map(|_| {
            let before = ALLOCATIONS.load(Relaxed);
            let bytes = encode_docking_result(&result);
            let allocations = ALLOCATIONS.load(Relaxed) - before;
            assert_eq!(
                decode_docking_result(&bytes).map(|back| back.pose),
                Some(result.pose.clone())
            );
            allocations
        })
        .min()
        .unwrap_or(u64::MAX);
    eprintln!("allocations of encode_docking_result: {allocations}");
    assert_eq!(allocations, DOCKING_ENCODE);
}

#[test]
fn canonicalising_a_serve_mix_lookup_stays_under_its_allocation_ceiling() {
    let _counting = ONE_AT_A_TIME.lock().unwrap_or_else(PoisonError::into_inner);
    let q = parse_query(SERVE_FILTER_LOOKUP).unwrap();
    // The test harness's own thread can allocate inside the window (it
    // records the other tests' results), and other threads only ever add:
    // the least of a few repetitions is the canonicaliser's count.
    let allocations = (0..5)
        .map(|_| {
            let before = ALLOCATIONS.load(Relaxed);
            let bgp = fragment(&q, FragmentSpec::Bgp);
            let filtered = fragment(&q, FragmentSpec::Where);
            let allocations = ALLOCATIONS.load(Relaxed) - before;
            assert_ne!(bgp.fingerprint, filtered.fingerprint);
            allocations
        })
        .min()
        .unwrap_or(u64::MAX);
    eprintln!("allocations of fragment(Bgp) + fragment(Where): {allocations}");
    assert!(
        allocations <= SERVE_LOOKUP_FRAGMENTS,
        "{allocations} allocations, ceiling {SERVE_LOOKUP_FRAGMENTS}"
    );
}

#[test]
fn a_prepared_hit_submit_and_one_slice_stay_under_their_allocation_ceiling() {
    let _counting = ONE_AT_A_TIME.lock().unwrap_or_else(PoisonError::into_inner);
    // A quantum below any stage's cost: every round steps one slice.
    let cfg = ServeConfig { quantum_secs: 1e-12, ..ServeConfig::default() };
    let mut svc = QueryService::new(launch(), cfg);
    svc.register_tenant(TenantConfig::new("t"));
    let session = svc.open_session("t").unwrap();
    // Warm-up: the first run prepares the text (a miss), the second hits;
    // both make the metric series and terms a steady-state run reuses.
    for _ in 0..2 {
        svc.submit(session, QUERY).unwrap();
        svc.run_until_idle();
    }
    // The least of a few repetitions: helper threads and the slice log's
    // growth only ever add.
    let mut least = u64::MAX;
    for _ in 0..5 {
        let (hits_before, slices_before) = (prepared_hits(&svc), svc.trace().len());
        let before = ALLOCATIONS.load(Relaxed);
        svc.submit(session, QUERY).unwrap();
        let done = svc.run_round();
        let allocations = ALLOCATIONS.load(Relaxed) - before;
        assert!(done.is_empty(), "one slice does not finish the query");
        assert_eq!(svc.trace().len() - slices_before, 1, "one slice per round");
        assert_eq!(prepared_hits(&svc) - hits_before, 1, "the submission hit the prepared cache");
        least = least.min(allocations);
        assert_eq!(svc.run_until_idle().len(), 1);
    }
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get() as u64);
    let ceiling = SERVE_HIT_SUBMIT_AND_SLICE + HELPER_ALLOWANCE * (workers - 1);
    eprintln!("allocations of a prepared-hit submit + one slice on {workers} workers: {least}");
    assert!(least <= ceiling, "{least} allocations, ceiling {ceiling}");
}

fn prepared_hits(svc: &QueryService) -> u64 {
    svc.instance().metrics_snapshot().counter("ids_prepared_hits_total", "")
}
