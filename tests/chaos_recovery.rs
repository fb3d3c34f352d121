//! Query-level survivability under permanent rank loss: the recovery
//! plane rolls a mid-flight query back to its last completed checkpoint,
//! retires the dead ranks, re-plans their shards onto the survivors, and
//! resumes — **byte-identical** to the fault-free run. The matrix kills
//! one whole node at *every* checkpoint boundary the fault-free run
//! recorded, in both BSP and pipelined exchange modes, across
//! replication factors 1–3:
//!
//! * rf ≥ 2 — the checkpoint survives the node (one replica is off the
//!   dead node), the query resumes and its raw term-id rows match the
//!   fault-free baseline exactly;
//! * rf = 1 — the checkpoint *may* have lived only on the dead node, so
//!   recovery refuses deterministically with the typed
//!   [`ExecError::CheckpointLost`] — never a panic, never a wrong answer.
//!
//! The `CHAOS_RECOVERY=spiteful` axis adds the adversarial schedule: run
//! once with speculation under stragglers, find the rank that won the
//! first speculation race, then re-run killing *that* rank's node just
//! after its win — the worst moment the fault plane can pick.

use ids::cache::{BackingStore, CacheConfig, CacheManager};
use ids::core::workflow::{
    install_workflow, repurposing_query, RepurposingThresholds, WorkflowModels,
};
use ids::core::{
    ExecError, IdsConfig, IdsInstance, QueryError, QueryOutcome, RunPhase, StepOutcome,
};
use ids::simrt::faults::StragglerConfig;
use ids::simrt::{FaultConfig, FaultPlane, NetworkModel, NodeId, Topology};
use ids::workloads::ncnpr::{build, Band, NcnprConfig};
use std::sync::Arc;

/// The CI seed matrix (ci.sh runs one seed per job via `CHAOS_SEED`).
fn chaos_seeds() -> Vec<u64> {
    match std::env::var("CHAOS_SEED") {
        Ok(s) => vec![s.parse().expect("CHAOS_SEED must be an unsigned integer")],
        Err(_) => (1..=8).collect(),
    }
}

/// The `CHAOS_RECOVERY` CI axis: `default` kills at checkpoint
/// boundaries; `spiteful` kills the first speculation winner. Unset runs
/// both.
fn axis() -> Vec<&'static str> {
    match std::env::var("CHAOS_RECOVERY").as_deref() {
        Err(_) | Ok("") => vec!["default", "spiteful"],
        Ok("default") => vec!["default"],
        Ok("spiteful") => vec!["spiteful"],
        Ok(other) => panic!("unknown CHAOS_RECOVERY axis {other:?} (want default|spiteful)"),
    }
}

/// Straggler-only noise so each seed exercises a different virtual-time
/// schedule (and therefore different checkpoint boundaries) without any
/// random crash windows competing with the scheduled permanent kill.
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

/// One run's shape: exchange mode, cache replication factor, straggler
/// seed, and an optional scheduled permanent kill `(node, at_secs)`.
#[derive(Clone, Copy)]
struct RunSpec {
    pipelined: bool,
    replication: usize,
    seed: u64,
    kill: Option<(u32, f64)>,
    speculation: bool,
}

/// Launch an instance with the NCNPR workflow, the recovery plane on,
/// and the spec's fault schedule pinned before the plane is attached
/// (permanent kills are scheduled at construction — the plane is shared
/// immutably afterwards).
fn launch(spec: RunSpec) -> IdsInstance {
    let topo = Topology::new(4, 2);
    let cache = Arc::new(CacheManager::new(
        topo,
        NetworkModel::slingshot(),
        CacheConfig::new(2, 64 << 20, 256 << 20).with_replication(spec.replication),
        BackingStore::default_store(),
    ));
    let mut cfg = IdsConfig::laptop(topo.total_ranks(), 11);
    cfg.topology = topo;
    let mut inst = IdsInstance::launch(cfg);
    inst.attach_cache(cache);
    let mut plane =
        FaultPlane::new(spec.seed, straggler_noise(), topo.nodes(), topo.total_ranks(), 10.0);
    if let Some((node, at)) = spec.kill {
        plane.schedule_permanent_kill(NodeId(node), at);
    }
    inst.attach_faults(Arc::new(plane));
    let dataset = build(inst.datastore(), &small_config());
    let target = dataset.target.clone();
    install_workflow(&mut inst, &target, WorkflowModels::test_models());
    let opts = inst.exec_options_mut();
    opts.recovery = true;
    opts.speculation = spec.speculation;
    opts.pipelined = spec.pipelined;
    inst
}

fn query() -> String {
    repurposing_query(&RepurposingThresholds { sw_similarity: 0.9, min_pic50: 3.0, min_dtba: 3.0 })
}

/// Raw term-id rows — the strictest equality there is.
fn raw_rows(o: &QueryOutcome) -> Vec<Vec<u64>> {
    o.solutions.rows().iter().map(|r| r.iter().map(|t| t.raw()).collect()).collect()
}

/// Enabling the recovery plane on a fault-free run changes only virtual
/// time (checkpoint puts), never the data plane; and it records the
/// checkpoint boundary schedule the kill matrix aims at.
#[test]
fn fault_free_recovery_is_byte_identical_and_checkpoints() {
    let base_spec =
        RunSpec { pipelined: false, replication: 2, seed: 1, kill: None, speculation: false };
    let mut plain = launch(base_spec);
    plain.exec_options_mut().recovery = false;
    let plain_out = plain.query(&query()).unwrap();

    let mut rec = launch(base_spec);
    let rec_out = rec.query(&query()).unwrap();
    assert_eq!(raw_rows(&plain_out), raw_rows(&rec_out), "recovery plane touched the data plane");
    assert_eq!(rec_out.solutions.len(), 12, "3 proteins x 4 compounds");
    assert_eq!(rec_out.recovery.rollbacks, 0, "no faults, no rollbacks");
    assert!(
        rec_out.recovery.checkpoints_stored >= 2,
        "expected checkpoints at the BGP and WHERE boundaries at least: {:?}",
        rec_out.recovery
    );
    assert_eq!(rec_out.recovery.checkpoint_times.len() as u32, rec_out.recovery.checkpoints_stored);
}

/// The tentpole matrix: kill node 1 just after every checkpoint boundary
/// of the fault-free run, per seed × exchange mode, with rf=2 and rf=3.
/// Every killed run must resume and return raw rows byte-identical to
/// its fault-free twin.
#[test]
fn node_loss_at_every_checkpoint_boundary_resumes_byte_identical() {
    if !axis().contains(&"default") {
        return;
    }
    for seed in chaos_seeds() {
        for pipelined in [false, true] {
            for replication in [2usize, 3] {
                let spec = RunSpec { pipelined, replication, seed, kill: None, speculation: false };
                let mut base = launch(spec);
                let base_out = base.query(&query()).unwrap();
                let expected = raw_rows(&base_out);
                assert_eq!(expected.len(), 12);
                let boundaries = base_out.recovery.checkpoint_times.clone();
                assert!(!boundaries.is_empty(), "baseline stored no checkpoints");

                for &(ord, t) in &boundaries {
                    let label = format!(
                        "seed {seed} pipelined {pipelined} rf {replication} boundary {ord}@{t:.6}"
                    );
                    let mut inst = launch(RunSpec { kill: Some((1, t + 1e-9)), ..spec });
                    let out = inst
                        .query(&query())
                        .unwrap_or_else(|e| panic!("{label}: recovery failed: {e}"));
                    assert_eq!(
                        raw_rows(&out),
                        expected,
                        "{label}: resumed rows diverged from fault-free baseline"
                    );
                    assert!(
                        out.recovery.rollbacks >= 1,
                        "{label}: kill before query end must force a rollback: {:?}",
                        out.recovery
                    );
                    assert!(
                        !out.recovery.retired_ranks.is_empty(),
                        "{label}: dead node's ranks must be retired"
                    );
                    assert!(
                        out.recovery.replans >= 1 && out.recovery.shards_moved >= 1,
                        "{label}: orphan shards must be re-planned onto survivors: {:?}",
                        out.recovery
                    );
                }
            }
        }
    }
}

/// rf=1 has no surviving replica to restore from once the node holding
/// the checkpoint dies; recovery refuses with the typed
/// [`ExecError::CheckpointLost`] — deterministically, regardless of
/// placement luck, and without panicking.
#[test]
fn node_loss_with_rf1_fails_typed_not_panic() {
    if !axis().contains(&"default") {
        return;
    }
    for seed in chaos_seeds() {
        for pipelined in [false, true] {
            let spec = RunSpec { pipelined, replication: 1, seed, kill: None, speculation: false };
            let mut base = launch(spec);
            let base_out = base.query(&query()).unwrap();
            let Some(&(_, t)) = base_out.recovery.checkpoint_times.first() else {
                panic!("seed {seed}: baseline stored no checkpoints");
            };
            let mut inst = launch(RunSpec { kill: Some((1, t + 1e-9)), ..spec });
            match inst.query(&query()) {
                Err(QueryError::Exec(ExecError::CheckpointLost { ordinal, .. })) => {
                    assert!(ordinal >= 0, "seed {seed}: lost checkpoint has an ordinal");
                }
                other => panic!(
                    "seed {seed} pipelined {pipelined}: rf=1 node loss must fail with \
                     CheckpointLost, got {other:?}"
                ),
            }
        }
    }
}

/// Blowing the per-query recovery budget is a typed, retryable refusal —
/// the same kill schedule that resumes fine under the default budget
/// fails with [`ExecError::RecoveryExhausted`] when the budget is zero.
#[test]
fn exhausted_recovery_budget_is_typed() {
    let spec =
        RunSpec { pipelined: false, replication: 2, seed: 1, kill: None, speculation: false };
    let mut base = launch(spec);
    let base_out = base.query(&query()).unwrap();
    let &(_, t) = base_out.recovery.checkpoint_times.first().unwrap();

    let mut inst = launch(RunSpec { kill: Some((1, t + 1e-9)), ..spec });
    inst.exec_options_mut().max_recoveries = 0;
    match inst.query(&query()) {
        Err(QueryError::Exec(ExecError::RecoveryExhausted { attempts, .. })) => {
            assert_eq!(attempts, 1, "the first rollback already exceeds a zero budget");
        }
        other => panic!("zero budget must fail with RecoveryExhausted, got {other:?}"),
    }
}

/// Speculative re-execution under stragglers: hedged duplicates only
/// move virtual time, never rows, and a winning duplicate shortens the
/// critical path.
#[test]
fn speculation_preserves_bytes_and_saves_time() {
    if !axis().contains(&"spiteful") {
        return;
    }
    for seed in chaos_seeds() {
        let plain_spec =
            RunSpec { pipelined: false, replication: 2, seed, kill: None, speculation: false };
        let mut plain = launch(plain_spec);
        let plain_out = plain.query(&query()).unwrap();

        let mut spec = launch(RunSpec { speculation: true, ..plain_spec });
        let spec_out = spec.query(&query()).unwrap();
        assert_eq!(
            raw_rows(&plain_out),
            raw_rows(&spec_out),
            "seed {seed}: speculation touched the data plane"
        );
        if spec_out.recovery.speculation.wins > 0 {
            assert!(
                spec_out.elapsed_secs <= plain_out.elapsed_secs + 1e-9,
                "seed {seed}: a winning hedge must not lengthen the critical path \
                 (spec {} vs plain {})",
                spec_out.elapsed_secs,
                plain_out.elapsed_secs
            );
            assert!(spec_out.recovery.speculation.saved_secs > 0.0, "seed {seed}: wins save time");
        }
    }
}

/// The spiteful schedule: find the rank that won the first speculation
/// race, then re-run the same seed killing that rank's node right after
/// the win. The recovery plane must still resume byte-identical — a
/// speculation win is never load-bearing state outside the virtual
/// clocks.
#[test]
fn killing_the_speculation_winner_still_resumes_byte_identical() {
    if !axis().contains(&"spiteful") {
        return;
    }
    for seed in chaos_seeds() {
        let spec =
            RunSpec { pipelined: false, replication: 2, seed, kill: None, speculation: true };
        let mut probe = launch(spec);
        let probe_out = probe.query(&query()).unwrap();
        let expected = raw_rows(&probe_out);
        let Some((winner, won_at)) = probe_out.recovery.speculation.first_win else {
            // This seed's straggler draw produced no winning hedge —
            // nothing to be spiteful about.
            eprintln!("seed {seed}: no speculation win, spiteful kill skipped");
            continue;
        };
        let node = winner / 4; // Topology::new(4, 2): 4 ranks per node.
        let mut inst = launch(RunSpec { kill: Some((node, won_at + 1e-9)), ..spec });
        let out = inst.query(&query()).unwrap_or_else(|e| {
            panic!("seed {seed}: killing speculation winner (rank {winner}) broke recovery: {e}")
        });
        assert_eq!(
            raw_rows(&out),
            expected,
            "seed {seed}: spiteful kill of rank {winner}'s node diverged from baseline"
        );
        assert!(
            out.recovery.rollbacks >= 1,
            "seed {seed}: the spiteful kill must have forced a rollback: {:?}",
            out.recovery
        );
    }
}

/// A run started from the prepared-query cache that rolls back around a
/// dead node resumes byte-identical and leaves the cached entry — plan and
/// reuse checkpoints — exactly as a fresh prepare would build it.
#[test]
fn rolled_back_run_leaves_the_prepared_entry_untouched() {
    let spec =
        RunSpec { pipelined: false, replication: 2, seed: 1, kill: None, speculation: false };
    let base_out = launch(spec).query(&query()).unwrap();
    let &(_, t) = base_out.recovery.checkpoint_times.first().expect("baseline checkpoints");

    let mut inst = launch(RunSpec { kill: Some((1, t + 1e-9)), ..spec });
    let mut run = inst.prepare_run(&query(), true).unwrap();
    let entry = inst.prepared(&query(), true).unwrap();
    assert!(entry.reuse.is_some(), "cache attached: reuse checkpoints scheduled");
    let cached = format!("{entry:?}");
    let out = loop {
        if let StepOutcome::Done(out) = inst.step_run(&mut run).unwrap() {
            break out;
        }
    };
    assert!(out.recovery.rollbacks >= 1, "kill must force a rollback: {:?}", out.recovery);
    assert_eq!(raw_rows(&out), raw_rows(&base_out));
    assert!(Arc::ptr_eq(&entry, &inst.prepared(&query(), true).unwrap()));
    assert_eq!(format!("{entry:?}"), cached);
    assert_eq!(cached, format!("{:?}", inst.prepare_fresh(&query(), true).unwrap()));
}

/// Every rank's UDF profiles, totals as bits.
fn profile_table(inst: &IdsInstance) -> Vec<Vec<(String, u64, u64, u64)>> {
    inst.profilers()
        .map(|row| {
            row.names()
                .into_iter()
                .filter_map(|n| row.get(n).map(|p| (n, p)))
                .map(|(n, p)| (n.to_string(), p.calls, p.total_secs.to_bits(), p.rejections))
                .collect()
        })
        .collect()
}

/// A rollback restores the profile table the run had at its target: the
/// table as the step that completed that checkpoint left it, or the exact
/// pre-query table on a restart from scratch. The instance is warm, so the
/// pre-query table is not empty.
#[test]
fn rollback_restores_the_profile_table_of_its_target() {
    let spec =
        RunSpec { pipelined: false, replication: 2, seed: 1, kill: None, speculation: false };
    let mut base = launch(spec);
    base.query(&query()).unwrap();
    let warm_end = base.cluster().elapsed();
    let base_out = base.query(&query()).unwrap();
    let kills = std::iter::once(warm_end)
        .chain(base_out.recovery.checkpoint_times.iter().map(|&(_, t)| t))
        .collect::<Vec<_>>();
    let mut resumed = Vec::new();
    for t in kills {
        let mut inst = launch(RunSpec { kill: Some((1, t + 1e-9)), ..spec });
        inst.query(&query()).unwrap();
        // The table as of each completed checkpoint ordinal (−1: query start).
        let mut tables = vec![(-1i64, profile_table(&inst))];
        let mut run = inst.prepare_run(&query(), false).unwrap();
        loop {
            let from = run.phase();
            match inst.step_run(&mut run).unwrap() {
                StepOutcome::Done(out) => {
                    assert_eq!(raw_rows(&out), raw_rows(&base_out), "kill at {t}");
                    break;
                }
                StepOutcome::Recovered { resumed_ordinal, .. } => {
                    let (_, want) = tables
                        .iter()
                        .rev()
                        .find(|(ord, _)| *ord == resumed_ordinal)
                        .expect("rollback target was completed");
                    assert_eq!(&profile_table(&inst), want, "kill at {t}: {resumed_ordinal}");
                    resumed.push(resumed_ordinal);
                }
                _ => {
                    let ord = match (from, run.phase()) {
                        (RunPhase::Pattern(_), RunPhase::WhereFilter) => Some(0),
                        (RunPhase::WhereFilter, _) => Some(1),
                        (RunPhase::Stage(i), _) => Some(2 + i as i64),
                        _ => None,
                    };
                    if let Some(ord) = ord {
                        tables.push((ord, profile_table(&inst)));
                    }
                }
            }
        }
    }
    assert!(resumed.contains(&-1), "no restart from scratch: {resumed:?}");
    assert!(resumed.iter().any(|&o| o >= 1), "no rollback past a UDF stage: {resumed:?}");
}
