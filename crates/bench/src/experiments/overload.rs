//! Experiment X10 — overload survivability (serving plane under
//! production traffic).
//!
//! Drives open-loop Poisson×Zipf traffic from ≥1 000 simulated tenants
//! (striped over the three SLO classes) at 0.25× (uncontended), 1×, 2×,
//! and 4× of the measured service capacity, with class-aware WDRR
//! scheduling, hysteresis load shedding, and elastic scale-out enabled.
//! Per cell it reports per-class p50/p99/p999 virtual latency, goodput,
//! and refusal counts, plus the elasticity decisions taken.
//!
//! Acceptance invariants are asserted, not just printed: under 4×
//! overload the Interactive class must keep its p99 latency within 2× of
//! the uncontended baseline and its goodput no worse than baseline, while
//! the BestEffort class is shed (and Interactive is never shed).

use crate::reporting::{percentile, section, table, Records};
use ids_cache::CacheConfig;
use ids_core::IdsInstance;
use ids_graph::Term;
use ids_serve::{
    ElasticityConfig, QueryService, ScaleDecision, ServeConfig, ServeError, ShedConfig, SloClass,
    TenantConfig,
};
use ids_simrt::Topology;
use ids_workloads::client::drive_open_loop;
use ids_workloads::traffic::{class_of, generate, TrafficConfig};

const SEED: u64 = 7;
const TENANTS: usize = 1000;
const ARRIVALS: usize = 2000;
/// Unmeasured arrivals driven first at the same rate, so the controllers
/// (shed hysteresis, elastic fleet size) reach steady state before the
/// measured window opens — standard ramp-up exclusion.
const WARMUP_ARRIVALS: usize = 800;
const LOADS: [f64; 4] = [0.25, 1.0, 2.0, 4.0];

fn query_pool() -> Vec<String> {
    vec![
        "SELECT ?p WHERE { ?p <rdf:type> <up:Protein> . }".to_string(),
        "SELECT ?c ?p WHERE { ?c <inhibits> ?p . ?p <rdf:type> <up:Protein> . }".to_string(),
    ]
}

/// An 8-node topology with half the nodes parked: the elasticity
/// controller may grow into the reserve under sustained pressure.
fn launch() -> IdsInstance {
    let topo = Topology::new(8, 1);
    let cache = super::cache(topo, CacheConfig::new(2, 64 << 20, 256 << 20).with_replication(2));
    let mut inst = super::instance(topo, SEED);
    inst.attach_cache(cache);
    let ds = inst.datastore();
    for i in 0..200 {
        ds.add_fact(&Term::iri(format!("p:{i}")), &Term::iri("rdf:type"), &Term::iri("up:Protein"));
        ds.add_fact(
            &Term::iri(format!("c:{i}")),
            &Term::iri("inhibits"),
            &Term::iri(format!("p:{}", i % 17)),
        );
    }
    ds.build_indexes();
    inst
}

fn serve_config() -> ServeConfig {
    ServeConfig {
        quantum_secs: 1.0e-5,
        reuse: false, // keep per-query cost stable so "4x capacity" means 4x work
        max_in_flight: 16,
        // WDRR interleaving makes latency scale with admitted queue depth
        // (every backlogged tenant gets at least a progress-floor slice
        // per round), so protecting Interactive p99 means shedding early:
        // the lower classes start being refused at shallow occupancy,
        // well before the queue is deep enough to hurt the tail.
        shed: ShedConfig {
            best_effort_enter: 0.125,
            best_effort_exit: 0.03,
            batch_enter: 0.1875,
            batch_exit: 0.0625,
        },
        elasticity: Some(ElasticityConfig {
            min_nodes: 4,
            max_nodes: 8,
            scale_out_queue_per_rank: 0.5,
            // Negative threshold = scale-in disabled: the fleet only
            // ratchets up during a cell, so transient lulls never yank
            // capacity back and put reconfiguration churn in the tail.
            scale_in_queue_per_rank: -1.0,
            sustain_rounds: 3,
            cooldown_rounds: 3,
        }),
        ..ServeConfig::default()
    }
}

/// Measured fair-weather numbers: throughput from a closed-loop batch
/// probe, and solo per-query p99 latency from a sequential probe. All
/// offered-load multipliers and the Interactive deadline derive from
/// these.
fn calibrate() -> (f64, f64) {
    let mut svc = QueryService::new(launch(), serve_config());
    svc.register_tenant(TenantConfig::new("probe").with_max_queued(64));
    let s = svc.open_session("probe").expect("fresh tenant");
    let pool = query_pool();
    // Solo latency: one query in the system at a time.
    let mut solo = Vec::new();
    for q in 0..16 {
        svc.submit(s, &pool[q % pool.len()]).expect("probe admission");
        let done = svc.run_until_idle();
        assert_eq!(done.len(), 1);
        solo.push(done[0].latency_secs);
    }
    solo.sort_by(f64::total_cmp);
    let solo_p99 = percentile(&solo, 0.99);
    // Throughput: saturating waves under max_in_flight.
    let t0 = svc.instance().cluster().elapsed();
    let waves = 4;
    let per_wave = 12; // stays under max_in_flight so nothing is refused
    for _ in 0..waves {
        for q in 0..per_wave {
            svc.submit(s, &pool[q % pool.len()]).expect("probe admission");
        }
        let done = svc.run_until_idle();
        assert_eq!(done.len(), per_wave);
    }
    let qps = (waves * per_wave) as f64 / (svc.instance().cluster().elapsed() - t0);
    (qps, solo_p99)
}

#[derive(Default, Clone)]
struct ClassStats {
    completed: usize,
    shed: usize,
    overloaded: usize,
    deadline_aborts: usize,
    latencies: Vec<f64>,
}

/// One offered load's results; `by_class` is indexed by `SloClass as
/// usize` (declaration order, as in `SloClass::ALL`).
struct Cell {
    load: f64,
    offered_qps: f64,
    span_secs: f64,
    scale_outs: usize,
    scale_ins: usize,
    final_nodes: usize,
    by_class: [ClassStats; 3],
}

fn run_cell(load: f64, capacity_qps: f64, interactive_deadline_secs: f64) -> Cell {
    let offered_qps = load * capacity_qps;
    let tcfg = TrafficConfig {
        tenants: TENANTS,
        arrivals: ARRIVALS,
        mean_interarrival_secs: 1.0 / offered_qps,
        seed: SEED,
        ..TrafficConfig::default()
    };
    let arrivals = generate(&tcfg);
    let warmup =
        generate(&TrafficConfig { arrivals: WARMUP_ARRIVALS, seed: SEED ^ 0x5157, ..tcfg });
    let mut svc = QueryService::new(launch(), serve_config());
    let mut sessions = Vec::with_capacity(TENANTS);
    for t in 0..TENANTS {
        let name = format!("t{t:04}");
        let class = class_of(&tcfg, t);
        // Interactive tenants get a shallow per-tenant queue: a human
        // session's latency is dominated by its own backlog, so admitted
        // queries stay fast and the excess is per-tenant backpressure
        // (`Overloaded`, with a retry hint) instead of a deep FIFO.
        let max_queued = if class == SloClass::Interactive { 1 } else { 8 };
        // On top of the 4x class multiplier, interactive tenants carry a
        // higher base weight so a human query rides through an admitted
        // batch backlog instead of round-robining with it, plus a latency
        // SLO: a query that cannot finish inside its deadline is aborted
        // rather than served uselessly late.
        let weight = if class == SloClass::Interactive { 8 } else { 1 };
        let mut tc = TenantConfig::new(&name)
            .with_class(class)
            .with_weight(weight)
            .with_max_queued(max_queued);
        if class == SloClass::Interactive {
            tc = tc.with_deadline(interactive_deadline_secs);
        }
        svc.register_tenant(tc);
        sessions.push(svc.open_session(&name).expect("fresh tenant"));
    }
    let pool = query_pool();
    // Ramp-up exclusion: the warm-up schedule is driven at the same rate
    // but its completions and refusals are discarded.
    let warm_span = drive_open_loop(&mut svc, &warmup, &sessions, &pool).finished_at_secs;
    let report = drive_open_loop(&mut svc, &arrivals, &sessions, &pool);

    let mut by_class: [ClassStats; 3] = Default::default();
    for c in &report.completed {
        let s = &mut by_class[c.class as usize];
        match &c.result {
            Ok(_) => {
                s.completed += 1;
                s.latencies.push(c.latency_secs);
            }
            Err(ServeError::DeadlineExceeded { .. }) => s.deadline_aborts += 1,
            Err(other) => panic!("admitted query failed: {other}"),
        }
    }
    for r in &report.refused {
        let idx = class_of(&tcfg, r.tenant) as usize;
        match &r.error {
            ServeError::Shed { class, .. } => {
                assert_eq!(*class as usize, idx, "shed class matches the tenant's class");
                by_class[idx].shed += 1;
            }
            ServeError::Overloaded(_) => by_class[idx].overloaded += 1,
            other => panic!("unexpected refusal under overload: {other}"),
        }
    }
    for s in &mut by_class {
        s.latencies.sort_by(f64::total_cmp);
    }
    let scale_outs =
        svc.scale_events().iter().filter(|e| matches!(e.decision, ScaleDecision::Out)).count();
    let scale_ins =
        svc.scale_events().iter().filter(|e| matches!(e.decision, ScaleDecision::In)).count();
    Cell {
        load,
        offered_qps,
        span_secs: report.finished_at_secs - warm_span,
        scale_outs,
        scale_ins,
        final_nodes: svc.active_nodes() as usize,
        by_class,
    }
}

pub fn run() {
    section("X10: overload survivability — SLO classes x offered load");
    let (capacity_qps, solo_p99) = calibrate();
    // The Interactive latency SLO: finish within 1.5x the solo p99 or
    // abort. Under overload the deadline (not unbounded queueing) bounds
    // the served tail.
    let deadline = 1.5 * solo_p99;
    println!(
        "calibrated fair-weather capacity: {capacity_qps:.1} q/vsec, \
         solo p99 {solo_p99:.6}s, interactive deadline {deadline:.6}s\n"
    );

    let cells: Vec<Cell> = LOADS.iter().map(|&l| run_cell(l, capacity_qps, deadline)).collect();

    let mut rec = Records::new("overload");
    rec.add("capacity_qps", capacity_qps);
    let mut rows = Vec::new();
    for c in &cells {
        let key = format!("load{}", c.load);
        rec.add(format_args!("{key}.offered_qps"), c.offered_qps);
        rec.add(format_args!("{key}.span_secs"), c.span_secs);
        rec.add(format_args!("{key}.scale_outs"), c.scale_outs);
        rec.add(format_args!("{key}.scale_ins"), c.scale_ins);
        rec.add(format_args!("{key}.final_nodes"), c.final_nodes);
        for (k, class) in SloClass::ALL.iter().enumerate() {
            let s = &c.by_class[k];
            let key = format!("{key}.{}", class.label());
            rec.add(format_args!("{key}.completed"), s.completed);
            rec.add(format_args!("{key}.shed"), s.shed);
            rec.add(format_args!("{key}.overloaded"), s.overloaded);
            rec.add(format_args!("{key}.deadline_aborts"), s.deadline_aborts);
            rec.add(format_args!("{key}.goodput_qps"), s.completed as f64 / c.span_secs);
            for (p, name) in [(0.50, "p50"), (0.99, "p99"), (0.999, "p999")] {
                rec.add(format_args!("{key}.{name}_secs"), percentile(&s.latencies, p));
            }
            rows.push(vec![
                format!("{:.2}x", c.load),
                class.label().to_string(),
                s.completed.to_string(),
                s.shed.to_string(),
                s.overloaded.to_string(),
                s.deadline_aborts.to_string(),
                format!("{:.1}", s.completed as f64 / c.span_secs),
                format!("{:.6}s", percentile(&s.latencies, 0.50)),
                format!("{:.6}s", percentile(&s.latencies, 0.99)),
                format!("{:.6}s", percentile(&s.latencies, 0.999)),
            ]);
        }
    }
    table(
        &["load", "class", "done", "shed", "overld", "dl_abrt", "goodput", "p50", "p99", "p999"],
        &rows,
    );
    for c in &cells {
        println!(
            "load {:.2}x: {} scale-outs, {} scale-ins, {} nodes at end",
            c.load, c.scale_outs, c.scale_ins, c.final_nodes
        );
    }

    // Acceptance: Interactive survives 4x overload within 2x of the
    // uncontended baseline, paid for by shedding BestEffort.
    let base = &cells[0];
    let hot = cells.iter().find(|c| c.load == 4.0).unwrap();
    let b_i = &base.by_class[0];
    let h_i = &hot.by_class[0];
    let (bp99, hp99) = (percentile(&b_i.latencies, 0.99), percentile(&h_i.latencies, 0.99));
    assert!(
        hp99 <= 2.0 * bp99,
        "Interactive p99 under 4x overload must stay within 2x of baseline: {hp99} vs {bp99}"
    );
    let (b_good, h_good) =
        (b_i.completed as f64 / base.span_secs, h_i.completed as f64 / hot.span_secs);
    assert!(
        h_good >= b_good,
        "Interactive goodput must not fall below the uncontended baseline: {h_good} vs {b_good}"
    );
    assert!(hot.by_class[2].shed > 0, "4x overload must shed BestEffort traffic");
    assert_eq!(h_i.shed, 0, "Interactive is never shed");
    println!(
        "\n4x overload: Interactive p99 {:.6}s (baseline {:.6}s), goodput {:.1} q/vsec \
         (baseline {:.1}), {} BestEffort + {} Batch queries shed",
        hp99, bp99, h_good, b_good, hot.by_class[2].shed, hot.by_class[1].shed
    );
    rec.print();
}
