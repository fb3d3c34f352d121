//! Mid-query re-optimization chaos matrix (DESIGN.md §5l): adaptive runs
//! must return rows **byte-identical** to static cost-based runs, on a
//! dataset built to defeat the static cost model.
//!
//! The trap exploits what containment-based estimation cannot see —
//! *correlation*. Patterns `?x <a> ?v` and `?y <b> ?v` each have healthy
//! per-column NDVs, so the planner prices their join at
//! `|A|·|B| / max(ndv)` = 80 rows; but the actual value sets barely
//! overlap (2 shared `v`s), so only 8 rows come out. That 10× divergence
//! trips the boundary check, and the observed-row clamp on accumulated
//! NDVs flips the remaining suffix order (`?x <e> ?h` before
//! `?y <c> ?g`), so the matrix asserts `replans ≥ 1` — and identical
//! bytes — across 8 straggler seeds × both exchange modes.
//!
//! The `CHAOS_ADAPTIVE=aggressive` axis drops the re-plan threshold to
//! nearly 1× with no row floor, forcing re-plans at every slightly
//! divergent boundary: byte-identity must still hold.

use ids::core::{IdsConfig, IdsInstance, QueryOutcome, StepOutcome};
use ids::graph::Term;
use ids::simrt::faults::StragglerConfig;
use ids::simrt::{FaultConfig, FaultPlane, Topology};
use std::sync::Arc;

/// The CI seed matrix (ci.sh runs one seed per job via `CHAOS_SEED`).
fn chaos_seeds() -> Vec<u64> {
    match std::env::var("CHAOS_SEED") {
        Ok(s) => vec![s.parse().expect("CHAOS_SEED must be an unsigned integer")],
        Err(_) => (1..=8).collect(),
    }
}

/// The `CHAOS_ADAPTIVE` CI axis: `default` uses the stock re-plan
/// threshold; `aggressive` re-plans at nearly any divergence. Unset runs
/// both.
fn axis() -> Vec<&'static str> {
    match std::env::var("CHAOS_ADAPTIVE").as_deref() {
        Err(_) | Ok("") => vec!["default", "aggressive"],
        Ok("default") => vec!["default"],
        Ok("aggressive") => vec!["aggressive"],
        Ok(other) => panic!("unknown CHAOS_ADAPTIVE axis {other:?} (want default|aggressive)"),
    }
}

/// Straggler-only noise so each seed exercises a different virtual-time
/// schedule without perturbing the data plane.
fn straggler_noise() -> FaultConfig {
    FaultConfig {
        crash: None,
        transient: None,
        link: None,
        straggler: Some(StragglerConfig { fraction: 0.25, slowdown: 4.0 }),
        storage: None,
        permanent: None,
    }
}

const QUERY: &str =
    "SELECT ?x ?v ?y ?g ?h WHERE { ?x <a> ?v . ?y <b> ?v . ?y <c> ?g . ?x <e> ?h . }";

fn fact(inst: &IdsInstance, s: String, p: &str, o: String) {
    inst.datastore().add_fact(&Term::iri(s), &Term::iri(p), &Term::iri(o));
}

/// The correlation trap. `<a>` objects are `v0..v19`, `<b>` objects are
/// `v18..v67`: per-column NDVs look joinable (20 and 50), the actual
/// overlap is 2 values. `<c>` hangs 33 distinct `g`s off each of 2 `y`
/// subjects (tiny subject NDV — its denominator collapses with the
/// observed-row clamp), `<e>` hangs 3 `h`s off every `x` (subject NDV
/// stays at 40 — its denominator does not), which is what makes the
/// re-planned suffix order flip.
fn build_trap(inst: &IdsInstance) {
    for i in 0..40 {
        fact(inst, format!("x{i}"), "a", format!("v{}", i / 2));
    }
    for j in 0..100 {
        fact(inst, format!("y{j}"), "b", format!("v{}", 18 + j / 2));
    }
    for y in 0..2 {
        for g in 0..33 {
            fact(inst, format!("y{y}"), "c", format!("g{}", y * 33 + g));
        }
    }
    for i in 0..40 {
        for k in 0..3 {
            fact(inst, format!("x{i}"), "e", format!("h{}", 3 * i + k));
        }
    }
    inst.datastore().build_indexes();
}

/// The uniform control: same shape, but `<b>`'s objects span `v0..v49`,
/// fully covering `<a>`'s `v0..v19` — the containment estimate (80 rows)
/// is exact, so the default threshold must never trigger a re-plan.
fn build_uniform(inst: &IdsInstance) {
    for i in 0..40 {
        fact(inst, format!("x{i}"), "a", format!("v{}", i / 2));
    }
    for j in 0..100 {
        fact(inst, format!("y{j}"), "b", format!("v{}", j / 2));
    }
    for y in 0..2 {
        for g in 0..33 {
            fact(inst, format!("y{y}"), "c", format!("g{}", y * 33 + g));
        }
    }
    for i in 0..40 {
        for k in 0..3 {
            fact(inst, format!("x{i}"), "e", format!("h{}", 3 * i + k));
        }
    }
    inst.datastore().build_indexes();
}

struct RunSpec {
    seed: u64,
    pipelined: bool,
    adaptive: bool,
    /// `None` = stock threshold; `Some((ratio, min_rows))` overrides.
    threshold: Option<(f64, u64)>,
}

fn launch(spec: &RunSpec, build: fn(&IdsInstance)) -> IdsInstance {
    let topo = Topology::new(4, 2);
    let mut cfg = IdsConfig::laptop(topo.total_ranks(), spec.seed);
    cfg.topology = topo;
    let mut inst = IdsInstance::launch(cfg);
    let plane =
        FaultPlane::new(spec.seed, straggler_noise(), topo.nodes(), topo.total_ranks(), 10.0);
    inst.attach_faults(Arc::new(plane));
    build(&inst);
    let opts = inst.exec_options_mut();
    opts.adaptive = spec.adaptive;
    opts.pipelined = spec.pipelined;
    if let Some((ratio, min_rows)) = spec.threshold {
        opts.replan_ratio = ratio;
        opts.replan_min_rows = min_rows;
    }
    inst
}

/// Raw term-id rows — the strictest equality there is.
fn raw_rows(o: &QueryOutcome) -> Vec<Vec<u64>> {
    o.solutions.rows().iter().map(|r| r.iter().map(|t| t.raw()).collect()).collect()
}

/// The tentpole matrix: per straggler seed × exchange mode, the adaptive
/// run must re-plan at least once on the trap dataset and still return
/// rows byte-identical to the static cost-based run.
#[test]
fn trap_dataset_replans_and_stays_byte_identical() {
    if !axis().contains(&"default") {
        return;
    }
    for seed in chaos_seeds() {
        for pipelined in [false, true] {
            let label = format!("seed {seed} pipelined {pipelined}");
            let spec = RunSpec { seed, pipelined, adaptive: false, threshold: None };
            let mut stat = launch(&spec, build_trap);
            let stat_out = stat.query(QUERY).unwrap_or_else(|e| panic!("{label}: static: {e}"));
            assert!(!stat_out.solutions.is_empty(), "{label}: trap query returned nothing");
            assert_eq!(stat_out.adaptive.replans, 0, "{label}: static run must never re-plan");

            let spec = RunSpec { seed, pipelined, adaptive: true, threshold: None };
            let mut adap = launch(&spec, build_trap);
            let adap_out = adap.query(QUERY).unwrap_or_else(|e| panic!("{label}: adaptive: {e}"));
            assert_eq!(
                raw_rows(&adap_out),
                raw_rows(&stat_out),
                "{label}: re-planned rows diverged from static plan"
            );
            assert!(
                adap_out.adaptive.replans >= 1,
                "{label}: correlation trap must force a re-plan: {:?}",
                adap_out.adaptive
            );
            assert!(
                adap_out.adaptive.worst_divergence() >= 4.0,
                "{label}: expected >=4x est/actual divergence: {:?}",
                adap_out.adaptive.boundaries
            );
        }
    }
}

/// Uniform control: when the containment estimate is exact, the default
/// threshold never re-plans — adaptivity must not thrash on good plans.
#[test]
fn uniform_dataset_never_replans() {
    if !axis().contains(&"default") {
        return;
    }
    for seed in chaos_seeds() {
        for pipelined in [false, true] {
            let label = format!("seed {seed} pipelined {pipelined}");
            let spec = RunSpec { seed, pipelined, adaptive: false, threshold: None };
            let mut stat = launch(&spec, build_uniform);
            let stat_out = stat.query(QUERY).unwrap_or_else(|e| panic!("{label}: static: {e}"));

            let spec = RunSpec { seed, pipelined, adaptive: true, threshold: None };
            let mut adap = launch(&spec, build_uniform);
            let adap_out = adap.query(QUERY).unwrap_or_else(|e| panic!("{label}: adaptive: {e}"));
            assert_eq!(raw_rows(&adap_out), raw_rows(&stat_out), "{label}: rows diverged");
            assert_eq!(
                adap_out.adaptive.replans, 0,
                "{label}: exact estimates must not trigger re-plans: {:?}",
                adap_out.adaptive.boundaries
            );
            assert!(adap_out.adaptive.checks >= 2, "{label}: boundaries went unchecked");
        }
    }
}

/// Aggressive axis: with the threshold floored, re-plans fire at every
/// slightly divergent boundary on both datasets — bytes must not move.
#[test]
fn aggressive_replanning_stays_byte_identical() {
    if !axis().contains(&"aggressive") {
        return;
    }
    for seed in chaos_seeds() {
        for pipelined in [false, true] {
            for build in [build_trap as fn(&IdsInstance), build_uniform] {
                let label = format!("seed {seed} pipelined {pipelined}");
                let spec = RunSpec { seed, pipelined, adaptive: false, threshold: None };
                let mut stat = launch(&spec, build);
                let stat_out = stat.query(QUERY).unwrap_or_else(|e| panic!("{label}: static: {e}"));

                let spec = RunSpec { seed, pipelined, adaptive: true, threshold: Some((1.01, 1)) };
                let mut adap = launch(&spec, build);
                let adap_out =
                    adap.query(QUERY).unwrap_or_else(|e| panic!("{label}: adaptive: {e}"));
                assert_eq!(
                    raw_rows(&adap_out),
                    raw_rows(&stat_out),
                    "{label}: aggressive re-planning moved result bytes"
                );
            }
        }
    }
}

/// A run started from the prepared-query cache shares the cached plan; a
/// re-plan must copy it first, leaving the entry as a fresh prepare would
/// build it — for every later run of the same text.
#[test]
fn replanning_run_leaves_the_prepared_entry_untouched() {
    for seed in chaos_seeds() {
        let spec = RunSpec { seed, pipelined: false, adaptive: true, threshold: None };
        let mut adap = launch(&spec, build_trap);
        // The first prepare builds the entry and runs on its plan as is.
        let mut run = adap.prepare_run(QUERY, false).unwrap();
        let entry = adap.prepared(QUERY, false).unwrap();
        assert!(std::ptr::eq(run.plan(), &*entry.plan), "seed {seed}: run shares the cached plan");
        let cached = format!("{:?}", entry.plan);

        let out = loop {
            if let StepOutcome::Done(out) = adap.step_run(&mut run).unwrap() {
                break out;
            }
        };
        assert!(out.adaptive.replans >= 1, "seed {seed}: trap must re-plan: {:?}", out.adaptive);
        assert_ne!(format!("{:?}", run.plan()), cached, "seed {seed}: the run's own plan moved");
        assert_eq!(format!("{:?}", entry.plan), cached, "seed {seed}: re-plan wrote the entry");
        assert!(Arc::ptr_eq(&entry, &adap.prepared(QUERY, false).unwrap()));
        assert_eq!(cached, format!("{:?}", adap.prepare_fresh(QUERY, false).unwrap().plan));
    }
}
