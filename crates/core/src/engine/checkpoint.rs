//! Checkpoints: the ordinals of a run's stage boundaries, the semantic
//! reuse schedule ([`ReusePlan`]), the one store and the one load that
//! reuse and recovery checkpoints share, and the recovery plane that rolls
//! a run back to its last recovery checkpoint.
//!
//! A checkpoint is an [`IntermediateSolutions`] object in the cache tiers:
//! one typed set per rank plus the pre-filter counts. A reuse checkpoint
//! is named by the canonical fragment and holds canonical variable names,
//! so any later query over the same fragment can resume from it. A
//! recovery checkpoint is named by the run and holds the run's own names.

use super::{ExecError, PlanRun, RunPhase, StepCx, StepOutcome};
use crate::planner::PhysicalPlan;
use ids_cache::{CacheManager, IntermediateSolutions, TypedSolutionSet};
use ids_graph::batch::BatchView;
use ids_graph::stage::{IdBuffers, StagePart};
use ids_graph::StageBatch;
use ids_obs::MetricsRegistry;
use ids_simrt::rng::fnv1a;
use ids_simrt::{Cluster, RankId};
use ids_udf::ProfileTable;
use std::borrow::Cow;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;

/// Checkpoint ordinals: BGP = 0, WHERE = 1, stage i = 2 + i.
pub(super) fn stage_ordinal(i: usize) -> i64 {
    2 + i as i64
}

/// The phase that executes next after restoring checkpoint `ord` (−1 =
/// none, so the first pattern). Every resume goes through it, so the
/// reuse probe, the recovery rollback and the restart from scratch can
/// never disagree.
pub(super) fn phase_after_ordinal(ord: i64, plan: &PhysicalPlan) -> RunPhase {
    match ord {
        n if n < 0 => RunPhase::Pattern(0),
        0 => RunPhase::WhereFilter,
        1 if plan.stages.is_empty() => RunPhase::Gather,
        1 => RunPhase::Stage(0),
        n => {
            let i = (n - 2) as usize;
            if i + 1 < plan.stages.len() {
                RunPhase::Stage(i + 1)
            } else {
                RunPhase::Gather
            }
        }
    }
}

/// The checkpoint ordinal a `from` → `to` phase transition completes
/// (`None` mid-BGP and at the gather, which have no boundary).
fn completed_ordinal(from: RunPhase, to: RunPhase) -> Option<i64> {
    match (from, to) {
        (RunPhase::Pattern(_), RunPhase::WhereFilter) => Some(0),
        (RunPhase::WhereFilter, _) => Some(1),
        (RunPhase::Stage(i), _) => Some(stage_ordinal(i)),
        _ => None,
    }
}

/// One plan-fragment checkpoint for semantic result reuse: where in the
/// shared cache the intermediate state for a canonical fragment lives, and
/// how to translate between this query's variable names and the canonical
/// schema the cached object uses.
#[derive(Debug, Clone)]
pub struct ReuseCheckpoint {
    /// Cache object name. Callers salt it with everything outside the
    /// query text that determines the intermediate state (rank count,
    /// datastore identity, result-affecting exec options).
    pub key: String,
    /// Canonical fragment fingerprint, stored inside the typed object and
    /// verified on load so a key collision is detected, never resumed from.
    pub fingerprint: u64,
    /// Metrics label (`"bgp"`, `"where"`, `"stage0"`, …).
    pub label: String,
    /// `(this query's variable name, canonical name)` for every variable
    /// in the fragment's scope, sorted by the former. A handful of pairs
    /// held for the life of a prepared query, so a flat list, not a map.
    pub rename: Vec<(String, String)>,
}

/// The checkpoint schedule for a [`PlanRun`]: which execution prefixes may
/// be loaded from / stored to the shared cache. Built by
/// [`IdsInstance::prepare_run`](crate::instance::IdsInstance::prepare_run)
/// from [`crate::iql::fragment`]; the engine itself knows nothing about IQL
/// canonicalization.
#[derive(Debug, Clone)]
pub struct ReusePlan {
    /// State after the basic graph pattern (scans + joins).
    pub after_bgp: Option<ReuseCheckpoint>,
    /// State after the WHERE filter (`None` when the query has no filter).
    pub after_where: Option<ReuseCheckpoint>,
    /// State after each post-WHERE stage (aligned with `plan.stages`).
    pub after_stage: Vec<Option<ReuseCheckpoint>>,
    /// Intermediates larger than this are not cached (admission cap).
    pub max_object_bytes: usize,
}

impl ReusePlan {
    /// Default admission cap for cached intermediates.
    pub const DEFAULT_MAX_OBJECT_BYTES: usize = 16 << 20;

    /// The checkpoint scheduled at ordinal `ord`, if any.
    fn at(&self, ord: i64) -> Option<&ReuseCheckpoint> {
        match ord {
            0 => self.after_bgp.as_ref(),
            1 => self.after_where.as_ref(),
            n => self.after_stage.get((n - 2) as usize).and_then(Option::as_ref),
        }
    }
}

/// Recovery checkpoint ids are per-run, not semantic: a monotonic counter
/// keeps two interleaved runs of the same query from clobbering each
/// other's rollback state.
pub(super) static NEXT_RUN_ID: AtomicU64 = AtomicU64::new(1);

/// The one checkpoint store: encode `stage`, one typed set per rank with
/// its columns named `vars`, with `pre_filter_counts` and the object's
/// fingerprint, and put it in the cache tiers from `writer` under the
/// object's key, charging every rank's clock. Checkpoints are
/// recomputable intermediates, so they are replicated in the cache tiers
/// only: a durable write-through would pay a backing-store RPC that can
/// exceed the fragment's own cost. Returns `false`, storing nothing, when
/// the exact encoded size passes `max_bytes`.
#[allow(clippy::too_many_arguments)]
fn store_checkpoint(
    cluster: &mut Cluster,
    cache: &CacheManager,
    writer: RankId,
    (key, fingerprint): (&str, u64),
    stage: &StageBatch,
    vars: Vec<String>,
    pre_filter_counts: &[u64],
    max_bytes: Option<usize>,
) -> bool {
    let obj = IntermediateSolutions {
        fingerprint,
        pre_filter_counts: pre_filter_counts.to_vec(),
        sets: (0..stage.ranks())
            .map(|r| TypedSolutionSet { vars: vars.clone(), rows: typed_rows(stage.segment(r)) })
            .collect(),
    };
    // `encoded_len` is exact (== `encode().len()`), so the admission cap
    // charges the measured serialized size, not an estimate.
    if max_bytes.is_some_and(|max| obj.encoded_len() > max) {
        return false;
    }
    let cost = cache.put_ephemeral(writer, key, obj.encode());
    cluster.charge_all(cost);
    true
}

/// One rank's rows as the raw ids of a typed checkpoint, read straight
/// from its columns.
fn typed_rows(s: BatchView<'_>) -> Vec<Vec<u64>> {
    (0..s.len()).map(|i| (0..s.vars().len()).map(|c| s.column(c).get(i)).collect()).collect()
}

/// Why a checkpoint could not be loaded: the `detail` recovery reports in
/// [`ExecError::CheckpointLost`]. The reuse probe counts any as a miss.
type LoadError = Cow<'static, str>;

/// The one checkpoint load: read `key` from `reader`, charging every
/// rank's clock what the read cost, and decode it.
fn load_checkpoint(
    cx: &mut StepCx<'_>,
    cache: &CacheManager,
    reader: RankId,
    (key, fingerprint): (&str, u64),
    rename: impl Fn(&str) -> Option<String>,
) -> Result<(StageBatch, Vec<u64>), LoadError> {
    let (bytes, out) = match cache.get(reader, key) {
        Ok(Some(v)) => v,
        Ok(None) => return Err("checkpoint evicted or lost with its node".into()),
        Err(e) => {
            cx.cluster.charge_all(e.spent_secs());
            return Err(format!("cache read failed: {e}").into());
        }
    };
    cx.cluster.charge_all(out.virtual_secs);
    decode_checkpoint(&bytes, fingerprint, cx.ranks, rename)
}

/// Decode a checkpoint object of `ranks` ranks into the stage it holds,
/// each column named through `rename`, and its pre-filter counts.
fn decode_checkpoint(
    bytes: &[u8],
    fingerprint: u64,
    ranks: usize,
    rename: impl Fn(&str) -> Option<String>,
) -> Result<(StageBatch, Vec<u64>), LoadError> {
    let obj = IntermediateSolutions::decode(bytes, fingerprint)
        .map_err(|e| format!("checkpoint failed to decode: {e:?}"))?;
    if obj.sets.len() != ranks || obj.pre_filter_counts.len() != ranks {
        let sets = obj.sets.len();
        return Err(format!("checkpoint shape mismatch: {sets} sets for {ranks} ranks").into());
    }
    let sets = typed_stage(&obj.sets, rename).ok_or("checkpoint ranks disagree on their schema")?;
    Ok((sets, obj.pre_filter_counts))
}

/// The stage of decoded typed sets (one per rank), each column named
/// through `rename`. `None` if a name has no rename, the ranks disagree on
/// their schema, or a row does not hold one id per variable. The ranks'
/// rows fill one part, and every segment gets the widths its own rows give
/// it.
fn typed_stage(
    sets: &[TypedSolutionSet],
    rename: impl Fn(&str) -> Option<String>,
) -> Option<StageBatch> {
    let first = sets.first()?;
    let schema: Arc<[String]> =
        first.vars.iter().map(|v| rename(v)).collect::<Option<Vec<String>>>()?.into();
    let rows = sets.iter().map(|ts| ts.rows.len()).sum();
    let buffers = IdBuffers::default();
    let mut part = StagePart::with_capacity(schema.len(), rows, &buffers);
    let mut spans = Vec::with_capacity(sets.len());
    for ts in sets {
        if ts.vars != first.vars {
            return None;
        }
        let (at, n) = part.push_rank(&ts.rows)?;
        spans.push((0, at, n));
    }
    StageBatch::assemble(schema, vec![part], &spans, &buffers)
}

impl PlanRun {
    /// Continue from checkpoint `ord` (−1: from scratch) with its rows and
    /// pre-filter counts: the reuse hit, the recovery rollback and the
    /// restart from scratch all resume here. A restored stage is placed on
    /// no variable.
    fn resume(&mut self, ord: i64, sets: Option<StageBatch>, pre_filter_counts: Vec<u64>) {
        self.sets = sets;
        self.placed = None;
        self.pre_filter_counts = pre_filter_counts;
        self.phase = phase_after_ordinal(ord, &self.plan);
    }

    /// Semantic reuse probe: the longest already-cached prefix wins, and
    /// the run resumes past it. A failing probe charges what it spent and
    /// falls back to executing the fragment — reuse is best-effort.
    pub(super) fn probe_reuse(&mut self, cx: &mut StepCx<'_>) {
        let (Some(reuse), Some(cache)) = (self.reuse.clone(), cx.cache) else { return };
        let stages = reuse.after_stage.iter().enumerate().rev();
        let scheduled = stages
            .map(|(i, cp)| (stage_ordinal(i), cp))
            .chain([(1, &reuse.after_where), (0, &reuse.after_bgp)]);
        for (ord, cp) in scheduled {
            let Some(cp) = cp else { continue };
            let named = |canon: &str| {
                cp.rename.iter().find(|(_, c)| c == canon).map(|(orig, _)| orig.clone())
            };
            let object = (cp.key.as_str(), cp.fingerprint);
            let Ok((sets, pre_counts)) = load_checkpoint(cx, cache, RankId(0), object, named)
            else {
                let label = cp.label.clone();
                cx.metrics.counter_with("ids_reuse_misses_total", "checkpoint", label).inc();
                continue;
            };
            let rows = sets.len() as u64;
            let metrics = cx.metrics;
            metrics.counter_with("ids_reuse_hits_total", "checkpoint", cp.label.clone()).inc();
            metrics.counter("ids_reuse_rows_restored_total").add(rows);
            let now = cx.cluster.elapsed();
            metrics.spans().record(
                "reuse",
                format!("resumed at {} ({rows} rows)", cp.label),
                now,
                now,
            );
            self.resume_ordinal = ord;
            self.resume(ord, Some(sets), pre_counts);
            return;
        }
    }

    /// Store the reuse checkpoint with ordinal `ord` (if scheduled, not
    /// already cached, and the state is clean) under its canonical names.
    /// Cache traffic is charged to the whole job's clock.
    pub(super) fn store_reuse_checkpoint(&self, ord: i64, cx: &mut StepCx<'_>) {
        let (Some(reuse), Some(cache)) = (&self.reuse, cx.cache) else { return };
        if ord <= self.resume_ordinal {
            return; // this prefix came *from* the cache
        }
        let Some(cp) = reuse.at(ord) else { return };
        // Degraded intermediates are partial — never share them.
        if !self.annotations.is_empty() {
            return;
        }
        let Some(stage) = &self.sets else { return };
        let mut vars = Vec::with_capacity(stage.vars().len());
        for v in stage.vars() {
            match cp.rename.iter().find(|(orig, _)| orig == v) {
                Some((_, c)) => vars.push(c.clone()),
                None => return, // schema var outside the fragment scope
            }
        }
        let object = (cp.key.as_str(), cp.fingerprint);
        let cap = Some(reuse.max_object_bytes);
        let counts = &self.pre_filter_counts;
        let metrics = cx.metrics;
        if store_checkpoint(cx.cluster, cache, RankId(0), object, stage, vars, counts, cap) {
            metrics.counter_with("ids_reuse_stores_total", "checkpoint", cp.label.clone()).inc();
        } else {
            let reason = "too-large".to_string();
            metrics.counter_with("ids_reuse_skipped_total", "reason", reason).inc();
        }
    }

    /// One stage under the recovery plane. Deaths become visible when the
    /// virtual clock passes the kill time, i.e. during the stage that
    /// overlapped it: check before the stage (deaths surfaced by a
    /// previous stage's collectives) and after it (deaths that happened
    /// mid-stage, whose output is therefore void).
    pub(super) fn step_recovering(
        &mut self,
        cx: &mut StepCx<'_>,
    ) -> Result<StepOutcome, ExecError> {
        let dead = self.newly_dead(cx.cluster);
        if !dead.is_empty() {
            return self.recover(cx, &dead, "rank loss detected before stage");
        }
        let ann_mark = self.annotations.len();
        let phase_before = self.phase;
        let (dead, reason) = match self.step_inner(cx) {
            // A blown strict stage deadline is a straggler symptom, not
            // bad data: roll back and retry within the budget.
            Err(ExecError::StageDeadline(_)) => {
                self.discard_in_flight_exchange(None, cx.metrics);
                (Vec::new(), "stage deadline exceeded")
            }
            Err(e) => return Err(e),
            Ok(outcome) => {
                let dead = self.newly_dead(cx.cluster);
                if dead.is_empty() {
                    // Boundary verified fault-free: checkpoint it. A stage
                    // that overlapped a death never stores its own
                    // checkpoint — the rollback below discards it first.
                    if let Some(ord) = completed_ordinal(phase_before, self.phase) {
                        self.store_recovery_checkpoint(ord, cx);
                    }
                    return Ok(outcome);
                }
                // The stage (possibly the gather itself) overlapped a
                // permanent rank death: discard its output and roll back.
                // Streamed sub-batches the doomed stage pushed through
                // exchange channels are voided with it — the receiver never
                // consumes a partial stream; the rows are replayed in full
                // from the producer-side checkpoint on resume.
                self.discard_in_flight_exchange(Some(&outcome), cx.metrics);
                if let StepOutcome::Done(done) = outcome {
                    self.breakdown = done.breakdown;
                    self.annotations = done.annotations;
                }
                (dead, "rank loss detected after stage")
            }
        };
        self.annotations.truncate(ann_mark);
        self.recover(cx, &dead, reason)
    }

    /// Ranks still live in the cluster whose host node the fault plane now
    /// reports permanently dead.
    fn newly_dead(&self, cluster: &Cluster) -> Vec<RankId> {
        let Some(plane) = cluster.faults() else { return Vec::new() };
        let t = cluster.elapsed();
        let topo = cluster.topology();
        (0..topo.total_ranks())
            .map(RankId)
            .filter(|&r| cluster.is_live(r) && plane.node_dead_at(topo.node_of(r), t))
            .collect()
    }

    /// Void every streamed-exchange sub-batch the doomed stage put in
    /// flight — both the untaken tally and any already-yielded
    /// [`StepOutcome::BatchReady`] being discarded by the rollback — and
    /// meter the loss. The channels are a cost-model concept (the data
    /// plane delivers a stage's rows before it returns), so "discard" here
    /// is an accounting truth: those batches will be re-produced from the
    /// checkpoint, never half-consumed downstream.
    fn discard_in_flight_exchange(
        &mut self,
        discarded_outcome: Option<&StepOutcome>,
        metrics: &MetricsRegistry,
    ) {
        let tally = std::mem::take(&mut self.exchange_tally);
        let mut batches = tally.batches;
        if let Some(StepOutcome::BatchReady { batches: b, .. }) = discarded_outcome {
            batches += b;
        }
        if batches > 0 {
            metrics.counter("ids_recovery_channel_batches_discarded_total").add(batches);
        }
    }

    /// Retire `dead` ranks, re-plan their shards onto the least-loaded
    /// survivors, and roll back to the last recovery checkpoint (or to
    /// scratch when none exists) — all within the per-query budget.
    fn recover(
        &mut self,
        cx: &mut StepCx<'_>,
        dead: &[RankId],
        reason: &str,
    ) -> Result<StepOutcome, ExecError> {
        let (cluster, metrics, ranks) = (&mut *cx.cluster, cx.metrics, cx.ranks);
        let attempts = self.recovery.rollbacks + 1;
        if attempts > self.opts.max_recoveries {
            metrics.counter("ids_recovery_exhausted_total").inc();
            return Err(ExecError::RecoveryExhausted {
                attempts,
                detail: format!(
                    "{reason}; budget is {} rollbacks per query",
                    self.opts.max_recoveries
                ),
            });
        }
        // Retire the dead ranks and permanently fence their cache node:
        // checkpoints it owned must never serve a recovery read.
        for &r in dead {
            cluster.retire_rank(r);
            self.recovery.retired_ranks.push(r.0);
            metrics.counter("ids_recovery_ranks_lost_total").inc();
            if let Some(cache) = cx.cache {
                cache.fail_node_permanently(cluster.topology().node_of(r));
            }
        }
        if cluster.live_count() == 0 {
            let rank = dead.first().map_or(0, |r| r.0);
            return Err(ExecError::RankLost {
                rank,
                node: cluster.topology().node_of(RankId(rank)).0,
                detail: "no live ranks remain to recover onto".to_string(),
            });
        }
        // Re-plan: orphaned shards go to the least-loaded survivor (fewest
        // owned shards, ties to the lowest rank id) — the same
        // deterministic least-loaded rule the count-based rebalancer uses.
        let mut owned = vec![0usize; ranks];
        for s in 0..ranks {
            let o = cluster.owner_of(s);
            if cluster.is_live(o) {
                owned[o.index()] += 1;
            }
        }
        let mut moved = 0u32;
        for s in 0..ranks {
            if cluster.is_live(cluster.owner_of(s)) {
                continue;
            }
            let Some(host) = cluster
                .live_ranks()
                .into_iter()
                .min_by(|a, b| owned[a.index()].cmp(&owned[b.index()]).then(a.0.cmp(&b.0)))
            else {
                break; // unreachable: live_count() > 0 was checked above
            };
            cluster.assign_shard(s, host);
            owned[host.index()] += 1;
            moved += 1;
        }
        if moved > 0 {
            self.recovery.replans += 1;
            self.recovery.shards_moved += moved;
            metrics.counter("ids_recovery_replans_total").inc();
            metrics.counter("ids_recovery_shards_moved_total").add(moved as u64);
        }
        self.recovery.rollbacks += 1;
        metrics.counter("ids_recovery_rollbacks_total").inc();
        let ord = self.recovery_ordinal;
        if ord < 0 {
            // No checkpoint yet: restart from scratch on the survivors
            // (scans re-read the datastore, so this needs no replica).
            self.resume(ord, None, Vec::new());
            self.restore_profiles(cx.profiles);
            self.recovery.restarts += 1;
            metrics.counter("ids_recovery_restarts_total").inc();
        } else {
            self.restore_recovery_checkpoint(ord, cx)?;
        }
        let now = cx.cluster.elapsed();
        let detail =
            format!("{reason}: rolled back to ordinal {ord} ({} ranks retired)", dead.len());
        metrics.spans().record("recovery", detail, now, now);
        Ok(StepOutcome::Recovered { resumed_ordinal: ord, retired_ranks: dead.len() as u32 })
    }

    /// Cache object name for this run's recovery checkpoint at `ord`, and
    /// the fingerprint stored with it.
    fn recovery_object(&self, ord: i64) -> (String, u64) {
        let key = format!("rcov/{:016x}/{ord}", self.run_id);
        let fingerprint = fnv1a(key.as_bytes());
        (key, fingerprint)
    }

    /// Store a recovery checkpoint for the boundary `ord` that just
    /// completed fault-free. Ephemeral cache tiers only — durability
    /// against node loss comes from cache replication (rf ≥ 2), which the
    /// rollback path verifies before trusting a checkpoint.
    fn store_recovery_checkpoint(&mut self, ord: i64, cx: &mut StepCx<'_>) {
        let Some(cache) = cx.cache else { return };
        if ord <= self.recovery_ordinal {
            return; // the rollback target already covers this boundary
        }
        // Degraded intermediates are partial — recovery must not resume
        // from them (same rule as the semantic-reuse store).
        if !self.annotations.is_empty() {
            return;
        }
        let Some(stage) = &self.sets else { return };
        let Some(writer) = cx.cluster.live_ranks().into_iter().next() else { return };
        let (key, fingerprint) = self.recovery_object(ord);
        let (vars, counts) = (stage.vars().to_vec(), &self.pre_filter_counts);
        store_checkpoint(cx.cluster, cache, writer, (&key, fingerprint), stage, vars, counts, None);
        self.recovery_ordinal = ord;
        self.profile_snapshot = Some(cx.profiles.clone());
        self.recovery.checkpoints_stored += 1;
        self.recovery.checkpoint_times.push((ord, cx.cluster.elapsed()));
        cx.metrics.counter("ids_recovery_checkpoints_total").inc();
    }

    /// Load the recovery checkpoint at `ord` back into the run. Requires a
    /// replicated cache (rf ≥ 2): with a single replica the dead node may
    /// have owned the only copy, so recovery refuses deterministically
    /// with a typed error instead of sometimes succeeding by placement
    /// luck.
    fn restore_recovery_checkpoint(
        &mut self,
        ord: i64,
        cx: &mut StepCx<'_>,
    ) -> Result<(), ExecError> {
        let lost = |detail: LoadError| ExecError::CheckpointLost {
            ordinal: ord,
            detail: detail.into_owned(),
        };
        let Some(cache) = cx.cache else {
            return Err(lost("no cache attached to recover from".into()));
        };
        let replication = cache.config().replication;
        if replication < 2 {
            return Err(lost(
                format!(
                    "replication factor {replication} leaves no durable replica after a \
                     permanent node loss"
                )
                .into(),
            ));
        }
        let Some(reader) = cx.cluster.live_ranks().into_iter().next() else {
            return Err(lost("no live rank left to read the checkpoint".into()));
        };
        let (key, fingerprint) = self.recovery_object(ord);
        let own = |v: &str| Some(v.to_string());
        let (sets, pre_counts) =
            load_checkpoint(cx, cache, reader, (&key, fingerprint), own).map_err(lost)?;
        let rows = sets.len() as u64;
        self.recovery.rows_restored += rows;
        cx.metrics.counter("ids_recovery_rows_restored_total").add(rows);
        self.restore_profiles(cx.profiles);
        self.resume(ord, Some(sets), pre_counts);
        Ok(())
    }

    /// Put the profiles back as they were at the rollback target.
    fn restore_profiles(&self, profiles: &mut ProfileTable) {
        if let Some(snap) = &self.profile_snapshot {
            profiles.clone_from(snap);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::test_support::{schema, stage_of, RankRows};

    #[test]
    fn a_checkpoint_whose_ranks_disagree_on_their_schema_is_refused() {
        let set = |vars: &[&str]| TypedSolutionSet {
            vars: vars.iter().map(|v| v.to_string()).collect(),
            rows: vec![vec![1; vars.len()]],
        };
        let named = |v: &str| Some(v.to_string());
        let stage = typed_stage(&[set(&["k", "v"]), set(&["k", "v"])], named).unwrap();
        assert_eq!((stage.ranks(), stage.len()), (2, 2));
        assert!(typed_stage(&[set(&["k", "v"]), set(&["v", "k"])], named).is_none());
        assert!(typed_stage(&[set(&["k"])], |_| None).is_none());
    }

    #[test]
    fn a_checkpoint_of_no_ranks_or_a_ragged_row_is_refused() {
        let named = |v: &str| Some(v.to_string());
        assert!(typed_stage(&[], named).is_none());
        let vars = vec!["k".to_string(), "v".to_string()];
        let whole = TypedSolutionSet { vars: vars.clone(), rows: vec![vec![1, 2]] };
        let ragged = TypedSolutionSet { vars, rows: vec![vec![1, 2], vec![3]] };
        assert!(typed_stage(&[whole.clone(), whole.clone()], named).is_some());
        assert!(typed_stage(&[whole, ragged], named).is_none());
    }

    #[test]
    fn a_reuse_checkpoint_loads_under_the_querys_names() {
        let set =
            |rows: Vec<Vec<u64>>| TypedSolutionSet { vars: vec!["v0".into(), "v1".into()], rows };
        let obj = IntermediateSolutions {
            fingerprint: 0xf00d,
            pre_filter_counts: vec![1, 0],
            sets: vec![set(vec![vec![4, 5]]), set(Vec::new())],
        };
        let bytes = obj.encode();
        let rename = [("protein", "v1"), ("seq", "v0")];
        let named = |canon: &str| {
            rename.iter().find(|(_, c)| *c == canon).map(|(orig, _)| orig.to_string())
        };
        let (stage, counts) = decode_checkpoint(&bytes, 0xf00d, 2, named).unwrap();
        assert_eq!(stage.vars(), ["seq", "protein"]);
        assert_eq!((stage.rank_offsets(), counts), (&[0, 1, 1][..], vec![1, 0]));
        assert_eq!(stage.segment(0).column(1).get(0), 5);
        // Another rank count, fingerprint or an unknown name fails to
        // load, and says why.
        let why = |r: Result<(StageBatch, Vec<u64>), LoadError>| r.unwrap_err();
        assert_eq!(
            why(decode_checkpoint(&bytes, 0xf00d, 3, named)),
            "checkpoint shape mismatch: 2 sets for 3 ranks"
        );
        assert!(why(decode_checkpoint(&bytes, 1, 2, named)).starts_with("checkpoint failed"));
        let unnamed = |canon: &str| (canon == "v0").then(|| "seq".to_string());
        assert_eq!(
            why(decode_checkpoint(&bytes, 0xf00d, 2, unnamed)),
            "checkpoint ranks disagree on their schema"
        );
    }

    #[test]
    fn a_checkpoint_reloads_every_rank_at_its_own_widths() {
        // Only rank 1 holds an id past `u32::MAX`, in column `v`.
        let vars = schema(&["k", "v"]);
        let stage = stage_of(&[
            RankRows::of(&vars, [vec![1, 2], vec![3, 4]]),
            RankRows::of(&vars, [vec![5, 1 << 33], vec![6, 7], vec![8, 9]]),
        ]);
        let obj = IntermediateSolutions {
            fingerprint: 0xc4ec,
            pre_filter_counts: vec![2, 3],
            sets: (0..2)
                .map(|r| TypedSolutionSet {
                    vars: stage.vars().to_vec(),
                    rows: typed_rows(stage.segment(r)),
                })
                .collect(),
        };
        let (loaded, _) =
            decode_checkpoint(&obj.encode(), 0xc4ec, 2, |v| Some(v.to_string())).unwrap();
        assert_eq!(loaded.ranks(), 2);
        for r in 0..2 {
            assert_eq!(RankRows::segment(&loaded, r), RankRows::segment(&stage, r), "rank {r}");
            for c in 0..2 {
                assert_eq!(loaded.segment_width(r, c), stage.segment_width(r, c), "rank {r}");
            }
            assert_eq!(loaded.segment_byte_size(r), stage.segment_byte_size(r), "rank {r}");
        }
        assert_eq!((loaded.segment_width(0, 1), loaded.segment_width(1, 1)), (4, 8));
        assert_eq!(loaded.segment_width(1, 0), 4);
    }
}
