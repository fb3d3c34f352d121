//! The BSP cluster executor: run rank programs over virtual ranks, then
//! synchronize with costed collectives.
//!
//! Execution alternates **compute phases** — every rank runs the same
//! closure on its own state, in parallel on the host's cores (see
//! [`crate::pool`]) — and **collectives** that synchronize the per-rank
//! virtual clocks. This is the
//! structure of the Cray Graph Engine's query execution (scan → exchange →
//! join → exchange → filter → …), and it makes thousands of virtual ranks
//! cheap: a rank is just an index plus a clock, not an OS thread.

use crate::clock::VirtualClock;
use crate::collective::ReduceOp;
use crate::faults::FaultPlane;
use crate::net::NetworkModel;
use crate::pool::{self, Fanout};
use crate::rng::SplitMix64;
use crate::topology::{NodeId, RankId, Topology};
use std::sync::Arc;

/// Execution context handed to a rank program during a compute phase.
pub struct RankCtx {
    rank: RankId,
    topo: Topology,
    clock: VirtualClock,
    rng: SplitMix64,
}

impl RankCtx {
    /// This rank's id.
    #[inline]
    pub fn rank(&self) -> RankId {
        self.rank
    }

    /// The node hosting this rank.
    #[inline]
    pub fn node(&self) -> NodeId {
        self.topo.node_of(self.rank)
    }

    /// The cluster topology.
    #[inline]
    pub fn topology(&self) -> &Topology {
        self.topo_ref()
    }

    #[inline]
    fn topo_ref(&self) -> &Topology {
        &self.topo
    }

    /// Current virtual time on this rank.
    #[inline]
    pub fn now(&self) -> f64 {
        self.clock.now()
    }

    /// Charge `secs` virtual seconds of compute to this rank.
    #[inline]
    pub fn charge(&mut self, secs: f64) {
        self.clock.charge(secs);
    }

    /// Deterministic per-(phase, rank) random stream.
    #[inline]
    pub fn rng(&mut self) -> &mut SplitMix64 {
        &mut self.rng
    }
}

/// Outcome of a streamed (pipelined) exchange: per-rank readiness times and
/// stall accounting, computed by [`Cluster::streamed_exchange_cost`].
///
/// Unlike the BSP collectives, a streamed exchange does **not** synchronize
/// clocks: it reports when each receiver *may start* consuming
/// (`first_ready`) and when it *holds every inbound batch* (`all_ready`),
/// and charges backpressure/down-window stalls to the senders that incurred
/// them. The caller applies the readiness times around the consuming
/// compute phase via [`Cluster::raise_clocks`].
#[derive(Debug, Clone)]
pub struct ExchangeCost {
    /// Earliest virtual time each rank has its first inbound batch
    /// (its own clock when nothing is inbound).
    pub first_ready: Vec<f64>,
    /// Virtual time each rank holds every inbound batch
    /// (its own clock when nothing is inbound).
    pub all_ready: Vec<f64>,
    /// Stall seconds charged to each sending rank (backpressure on full
    /// channel buffers, crash-window delays, serial wire occupancy).
    pub sender_stall: Vec<f64>,
    /// Total batches moved over non-empty channels.
    pub batches: u64,
    /// Channels that actually carried bytes.
    pub active_channels: u64,
    /// Sum of `sender_stall` across ranks.
    pub stall_secs_total: f64,
    /// High-water mark of delivered-but-unconsumed batches on any channel;
    /// never exceeds the channel capacity by construction.
    pub max_buffered: u64,
}

/// Upper bound on modelled batches per channel: below this the schedule is
/// exact; above it batch size is scaled up so cost stays O(1) per byte.
const MAX_BATCHES_PER_CHANNEL: u64 = 1024;

/// Speculative re-execution hedges a rank once its projected phase finish
/// exceeds this many times the median finish across working ranks.
pub const SPECULATION_THRESHOLD: f64 = 1.5;

/// Absolute lag floor: speculation never hedges over gaps smaller than
/// this many virtual seconds.
const SPECULATION_MIN_LAG_SECS: f64 = 1e-6;

/// What speculative re-execution did during one compute phase. Purely
/// clock accounting: the data plane never sees the duplicates.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SpeculationReport {
    /// Hedged duplicates launched.
    pub launched: u64,
    /// Duplicates that finished before the straggling original.
    pub wins: u64,
    /// Duplicates cancelled because the original finished first; their
    /// host is still charged up to the cancellation time.
    pub losses: u64,
    /// Critical-path seconds recovered by winning duplicates.
    pub saved_secs: f64,
    /// The first winning duplicate this phase: `(host rank, win time)`.
    /// Drives the chaos matrix's "spiteful" axis (kill the winner).
    pub first_win: Option<(u32, f64)>,
}

impl SpeculationReport {
    /// Fold a later phase's report into this one: counts and saved
    /// seconds add up, and the first win stays the earliest phase's.
    pub fn merge(&mut self, later: &SpeculationReport) {
        self.launched += later.launched;
        self.wins += later.wins;
        self.losses += later.losses;
        self.saved_secs += later.saved_secs;
        if self.first_win.is_none() {
            self.first_win = later.first_win;
        }
    }
}

/// A simulated cluster: topology + network model + per-rank clocks.
///
/// Recovery additions: each rank is either **live** or permanently
/// retired, and each *logical shard* (there are exactly `total_ranks`
/// of them, fixed for the life of the job) has an **owner** — the
/// physical rank that executes it. Owners start as the identity map;
/// after a permanent rank loss the engine re-plans orphaned shards onto
/// survivors. Shard identity (and therefore every data-plane decision:
/// rng streams, hash placement, row order) follows the *shard* id, so
/// re-owning shards never changes results — only whose clock pays.
pub struct Cluster {
    topo: Topology,
    net: NetworkModel,
    clocks: Vec<f64>,
    seed: u64,
    phase_counter: u64,
    faults: Option<Arc<FaultPlane>>,
    /// live[r]: rank r participates in phases and collectives.
    live: Vec<bool>,
    /// owners[s]: physical rank executing logical shard s.
    owners: Vec<u32>,
}

impl Cluster {
    /// Create a cluster with the given topology and network model. `seed`
    /// roots every random stream in the simulation.
    pub fn new(topo: Topology, net: NetworkModel, seed: u64) -> Self {
        let n = topo.total_ranks() as usize;
        Self {
            topo,
            net,
            clocks: vec![0.0; n],
            seed,
            phase_counter: 0,
            faults: None,
            live: vec![true; n],
            owners: (0..n as u32).collect(),
        }
    }

    /// Convenience: the paper's Cray EX scaling configuration at `nodes`
    /// nodes (32 ranks/node) over a Slingshot-like network.
    pub fn cray_ex(nodes: u32, seed: u64) -> Self {
        Self::new(Topology::cray_ex(nodes), NetworkModel::slingshot(), seed)
    }

    /// The cluster's topology.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// The network cost model in force.
    pub fn network(&self) -> &NetworkModel {
        &self.net
    }

    /// The root seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Attach a fault-injection plane. Subsequent compute phases apply
    /// straggler slowdowns, collectives pay link-degradation costs, and
    /// the plane's cursor tracks the cluster's virtual clock.
    pub fn attach_faults(&mut self, plane: Arc<FaultPlane>) {
        self.faults = Some(plane);
    }

    /// The attached fault plane, if any.
    pub fn faults(&self) -> Option<&Arc<FaultPlane>> {
        self.faults.as_ref()
    }

    /// Multiplier applied to collective network costs under the current
    /// link conditions (1.0 when healthy or no plane is attached).
    fn net_cost_mult(&self) -> f64 {
        self.faults.as_ref().map_or(1.0, |p| p.link_factors().cost_mult())
    }

    /// Let the fault plane's virtual-time cursor catch up to us.
    fn sync_faults(&self) {
        if let Some(p) = &self.faults {
            p.advance_to(self.elapsed());
        }
    }

    /// Permanently retire `rank`: it stops participating in phases and
    /// collectives and its clock freezes where it was. Shards it owns
    /// keep their owner entry until the engine re-plans them via
    /// [`Self::assign_shard`]. Irreversible — permanent node loss has
    /// no recovery window.
    pub fn retire_rank(&mut self, rank: RankId) {
        if let Some(l) = self.live.get_mut(rank.0 as usize) {
            *l = false;
        }
    }

    /// Is `rank` still live (not permanently retired)?
    pub fn is_live(&self, rank: RankId) -> bool {
        self.live.get(rank.0 as usize).copied().unwrap_or(false)
    }

    /// Ranks still live, in rank order.
    pub fn live_ranks(&self) -> Vec<RankId> {
        (0..self.clocks.len() as u32).map(RankId).filter(|&r| self.is_live(r)).collect()
    }

    /// Number of live ranks.
    pub fn live_count(&self) -> usize {
        self.live.iter().filter(|&&l| l).count()
    }

    /// Re-own logical shard `shard` to `owner` (must be live). Part of
    /// the engine's re-planning after a permanent rank loss.
    pub fn assign_shard(&mut self, shard: usize, owner: RankId) {
        if let Some(o) = self.owners.get_mut(shard) {
            *o = owner.0;
        }
    }

    /// The physical rank currently executing logical shard `shard`.
    pub fn owner_of(&self, shard: usize) -> RankId {
        RankId(self.owners.get(shard).copied().unwrap_or(shard as u32))
    }

    /// Re-own every logical shard across `active` (shard `s` goes to
    /// `active[s % active.len()]`), returning how many shards moved.
    /// This is the membership-change form of [`Self::assign_shard`]: the
    /// service tier's elastic scale-out/in drains a leaving node (its
    /// shards re-own onto the survivors) or spreads load onto a joiner
    /// with one call. Shard identity — not ownership — drives rng/hash/
    /// row-order streams, so a rebalance never changes results, only
    /// whose clock pays for each shard. An empty `active` set is a no-op
    /// (there is nowhere to move work to).
    pub fn rebalance_owners(&mut self, active: &[RankId]) -> usize {
        if active.is_empty() {
            return 0;
        }
        let mut moved = 0;
        for s in 0..self.owners.len() {
            let target = active[s % active.len()];
            if self.owners[s] != target.0 {
                self.owners[s] = target.0;
                moved += 1;
            }
        }
        moved
    }

    /// Maximum virtual time across **live** ranks — the job's elapsed
    /// virtual wall-clock so far. Retired ranks' frozen clocks no longer
    /// bound progress (with everything dead, the frozen maximum is
    /// reported so time stays monotone).
    pub fn elapsed(&self) -> f64 {
        let live_max = self
            .clocks
            .iter()
            .zip(&self.live)
            .filter(|&(_, &l)| l)
            .map(|(&c, _)| c)
            .fold(f64::NEG_INFINITY, f64::max);
        if live_max.is_finite() {
            live_max.max(0.0)
        } else {
            self.clocks.iter().copied().fold(0.0, f64::max)
        }
    }

    /// Per-rank virtual clocks (index = rank id).
    pub fn clocks(&self) -> &[f64] {
        &self.clocks
    }

    /// Reset all clocks to zero (data structures owned by higher layers are
    /// untouched). Used between repeated queries.
    pub fn reset_clocks(&mut self) {
        self.clocks.iter_mut().for_each(|c| *c = 0.0);
    }

    /// Charge `secs` of synchronized virtual time to every rank: all clocks
    /// advance to `elapsed() + secs`. Used by layers that perform work on
    /// behalf of the whole job outside a compute phase (e.g. the service
    /// tier moving cached intermediates), so reuse traffic still shows up
    /// honestly in virtual wall-clock. Negative or non-finite charges are
    /// ignored.
    pub fn charge_all(&mut self, secs: f64) {
        if !(secs.is_finite() && secs > 0.0) {
            return;
        }
        let t = self.elapsed() + secs;
        self.sync_live_clocks_to(t);
        self.sync_faults();
    }

    /// Advance every live rank's clock to `t`; retired clocks stay
    /// frozen (a dead rank takes part in no further collectives).
    fn sync_live_clocks_to(&mut self, t: f64) {
        for (c, &l) in self.clocks.iter_mut().zip(&self.live) {
            if l {
                *c = t;
            }
        }
    }

    /// Run a compute phase: every logical shard executes `f` with its own
    /// context, in parallel on every host core. Returns per-shard results
    /// in shard order, whatever the schedule was. No clock synchronization
    /// happens here — follow with [`Self::barrier`] or another collective
    /// to close the phase. The first argument labels the phase at its call
    /// site; the cluster keeps no per-phase history.
    ///
    /// The context's `rank()` is the *shard* id, so every data-plane
    /// decision (rng streams, hash placement) is a function of the shard
    /// alone; the clock that pays for the work is the shard's current
    /// **owner** (identity until a recovery re-plan moves shards off dead
    /// ranks). A rank owning several shards executes them serially on its
    /// own clock, dilated by its straggler factor.
    pub fn execute<T, F>(&mut self, _name: &str, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(&mut RankCtx) -> T + Sync,
    {
        self.execute_with_speculation(false, Fanout::Host, f).0
    }

    /// [`Self::execute`] plus optional speculative re-execution: with
    /// `speculate`, ranks whose projected phase finish lags the median
    /// past [`SPECULATION_THRESHOLD`] get a hedged duplicate of their
    /// remaining work on the least-loaded live rank. The first finisher wins (the
    /// original wins exact ties), the loser's cost is still charged to
    /// its host up to the cancellation instant, and the data plane is
    /// untouched — speculation is pure virtual-clock arithmetic, so
    /// results stay byte-identical with it on or off. `fanout` bounds the
    /// host threads the shards run on; it never changes a result either.
    pub fn execute_with_speculation<T, F>(
        &mut self,
        speculate: bool,
        fanout: Fanout,
        f: F,
    ) -> (Vec<T>, SpeculationReport)
    where
        T: Send,
        F: Fn(&mut RankCtx) -> T + Sync,
    {
        let (outs, _, spec) = self.execute_with_state(speculate, fanout, |_| (), |_, ctx| f(ctx));
        (outs, spec)
    }

    /// [`Self::execute_with_speculation`] with one piece of state per host
    /// worker ([`pool::map_shards_with`]): worker `w` builds its state with
    /// `init(w)` and passes it to every shard it runs, so a phase's shards
    /// can reuse buffers or append their output to their worker's. Returns
    /// the per-shard results in shard order and the states in worker
    /// order; which worker ran which shard depends on the schedule, so a
    /// shard that writes into its state says where in its result.
    pub fn execute_with_state<S, T, I, F>(
        &mut self,
        speculate: bool,
        fanout: Fanout,
        init: I,
        f: F,
    ) -> (Vec<T>, Vec<S>, SpeculationReport)
    where
        S: Send,
        T: Send,
        I: Fn(usize) -> S + Sync,
        F: Fn(&mut S, &mut RankCtx) -> T + Sync,
    {
        let phase_id = self.phase_counter;
        self.phase_counter += 1;
        let topo = self.topo;
        let seed = self.seed;
        // Each shard starts at its owner's clock; with identity owners
        // this is exactly the per-rank snapshot of the classic BSP model.
        let starts: Vec<f64> = self.owners.iter().map(|&o| self.clocks[o as usize]).collect();

        let (results, states) = pool::map_shards_with(starts.len(), fanout, init, |state, s| {
            let mut ctx = RankCtx {
                rank: RankId(s as u32),
                topo,
                clock: VirtualClock::at(starts[s]),
                rng: SplitMix64::new(seed, phase_id.wrapping_mul(0x1_0000_0001) ^ s as u64),
            };
            let out = f(state, &mut ctx);
            (ctx.clock.now(), out)
        });

        let mut owner_busy = vec![0.0; self.clocks.len()];
        let mut outs = Vec::with_capacity(results.len());
        for (s, (end, out)) in results.into_iter().enumerate() {
            // Straggler ranks (from the fault plane) run the same work,
            // but their busy time is dilated by a constant factor — the
            // factor of the *owner*, who actually runs the shard.
            let o = self.owners[s] as usize;
            let factor = self.faults.as_ref().map_or(1.0, |p| p.straggler_factor(RankId(o as u32)));
            owner_busy[o] += (end - starts[s]) * factor;
            outs.push(out);
        }
        for (o, &b) in owner_busy.iter().enumerate() {
            self.clocks[o] += b;
        }
        let spec =
            if speculate { self.speculate(&owner_busy) } else { SpeculationReport::default() };
        self.sync_faults();
        (outs, states, spec)
    }

    /// Hedge straggling ranks' remaining phase work onto the least-loaded
    /// live ranks. Deterministic: stragglers are visited in rank order,
    /// hosts chosen by `(projected finish, rank id)`, and ties between the
    /// original and its duplicate go to the original.
    fn speculate(&mut self, owner_busy: &[f64]) -> SpeculationReport {
        let mut report = SpeculationReport::default();
        // Snapshot every rank's projected finish *before* any hedging:
        // straggler detection compares original finishes only, so a host
        // charged for a losing copy never reads as a new straggler.
        let orig_finish = self.clocks.clone();
        // Median projected finish across live ranks that did work this
        // phase — the baseline a straggler is measured against. (Lower
        // middle of the sorted finishes: deterministic, no averaging.)
        let mut finishes: Vec<f64> = (0..orig_finish.len())
            .filter(|&r| self.live[r] && owner_busy[r] > 0.0)
            .map(|r| orig_finish[r])
            .collect();
        if finishes.len() < 2 {
            return report;
        }
        finishes.sort_by(f64::total_cmp);
        let median = finishes[(finishes.len() - 1) / 2];
        let factor =
            |r: usize| self.faults.as_ref().map_or(1.0, |p| p.straggler_factor(RankId(r as u32)));

        for o in 0..orig_finish.len() {
            if !self.live[o] || owner_busy[o] <= 0.0 {
                continue;
            }
            let finish = orig_finish[o];
            let lag = finish - median;
            if finish <= SPECULATION_THRESHOLD * median || lag < SPECULATION_MIN_LAG_SECS {
                continue;
            }
            // Host: the live rank (other than the straggler) projected to
            // be free earliest; ties break to the lowest rank id.
            let Some(h) = (0..self.clocks.len())
                .filter(|&h| h != o && self.live[h])
                .min_by(|&a, &b| self.clocks[a].total_cmp(&self.clocks[b]).then(a.cmp(&b)))
            else {
                continue;
            };
            // The duplicate starts once the lag is detectable (the median
            // finish) and the host is free, then re-runs the straggler's
            // remaining work at the host's own speed.
            let remaining_undilated = lag / factor(o).max(1.0);
            let copy_start = median.max(self.clocks[h]);
            let copy_finish = copy_start + remaining_undilated * factor(h);
            report.launched += 1;
            if copy_finish < finish {
                // Duplicate wins: the stage result is ready at the copy's
                // finish; the original is cancelled there too.
                report.wins += 1;
                report.saved_secs += finish - copy_finish;
                if report.first_win.is_none() {
                    report.first_win = Some((h as u32, copy_finish));
                }
                self.clocks[o] = copy_finish;
                self.clocks[h] = self.clocks[h].max(copy_finish);
            } else {
                // Original wins (ties included): the duplicate is cancelled
                // at that instant, but its host honestly paid until then.
                report.losses += 1;
                self.clocks[h] = self.clocks[h].max(finish);
            }
        }
        report
    }

    /// Barrier: every rank advances to the release time
    /// `max(clocks) + barrier_cost`. Returns the release time.
    pub fn barrier(&mut self) -> f64 {
        let t = self.elapsed() + self.net.barrier(self.topo.total_ranks()) * self.net_cost_mult();
        self.sync_live_clocks_to(t);
        self.sync_faults();
        t
    }

    /// Allreduce one f64 per rank. All ranks receive the reduced value and
    /// synchronize their clocks to the completion time.
    ///
    /// # Panics
    /// Panics if `locals.len() != total_ranks`.
    pub fn allreduce_f64(&mut self, locals: &[f64], op: ReduceOp) -> f64 {
        assert_eq!(locals.len(), self.clocks.len(), "one contribution per rank required");
        let result = op.reduce_f64(locals);
        let t =
            self.elapsed() + self.net.allreduce(self.topo.total_ranks(), 8) * self.net_cost_mult();
        self.sync_live_clocks_to(t);
        self.sync_faults();
        result
    }

    /// Allgather `bytes_per_rank` of payload from each rank; clocks
    /// synchronize to completion. The caller moves the actual data (it is
    /// already in shared host memory); this charges the virtual cost.
    pub fn allgather_cost(&mut self, bytes_per_rank: u64) -> f64 {
        let t = self.elapsed()
            + self.net.allgather(self.topo.total_ranks(), bytes_per_rank) * self.net_cost_mult();
        self.sync_live_clocks_to(t);
        self.sync_faults();
        t
    }

    /// Raise each rank's clock to at least `times[r]` without synchronizing
    /// the others. This is the pipelined counterpart of [`Self::barrier`]:
    /// a rank waits only for *its own* dependencies (e.g. inbound exchange
    /// batches), not for the global maximum. Non-finite entries are ignored.
    ///
    /// # Panics
    /// Panics if `times.len() != total_ranks`.
    pub fn raise_clocks(&mut self, times: &[f64]) {
        assert_eq!(times.len(), self.clocks.len(), "one time per rank required");
        for ((c, &t), &l) in self.clocks.iter_mut().zip(times).zip(&self.live) {
            if l && t.is_finite() && t > *c {
                *c = t;
            }
        }
        self.sync_faults();
    }

    /// Cost a **streamed** personalized exchange: `send_bytes[s * n + d]`
    /// bytes flow from rank `s` to rank `d` as a sequence of batches of at
    /// most `batch_bytes` each, produced incrementally over the sender's
    /// last compute window (`[produce_start[s], clocks[s]]`) and transferred
    /// through the α·β point-to-point model while production continues.
    ///
    /// Per channel the wire is serial (one batch in flight) and the
    /// receiver buffers at most `channel_capacity` delivered-but-unconsumed
    /// batches: further departures stall at the sender until the receiver
    /// starts draining, and that stall is charged to the sender's clock.
    /// Crash windows on the fault plane delay the affected channel's
    /// departures (sender node down) and deliveries (receiver node down)
    /// individually — other channels keep flowing. Link degradation
    /// multiplies every batch's wire time, and straggler dilation already
    /// reached `clocks[s]`/`produce_start[s]` through [`Self::execute`].
    ///
    /// Empty channels impose no dependency, so a receiver whose inbound
    /// shards are empty is ready immediately — the pipelined win the BSP
    /// barrier forfeits. Clocks of senders are advanced by their stall;
    /// receiver readiness is *returned*, not applied (see
    /// [`ExchangeCost`]).
    ///
    /// # Panics
    /// Panics if `send_bytes.len() != n*n` or `produce_start.len() != n`.
    pub fn streamed_exchange_cost(
        &mut self,
        send_bytes: &[u64],
        produce_start: &[f64],
        batch_bytes: u64,
        channel_capacity: usize,
    ) -> ExchangeCost {
        let n = self.clocks.len();
        assert_eq!(send_bytes.len(), n * n, "full n x n send matrix required");
        assert_eq!(produce_start.len(), n, "one production start per rank required");
        let batch_bytes = batch_bytes.max(1);
        let cap = channel_capacity.max(1);
        let mult = self.net_cost_mult();
        let topo = self.topo;
        let net = self.net;
        let faults = self.faults.clone();
        let delay = |rank: usize, t: f64| -> f64 {
            match &faults {
                Some(p) => p.delay_past_down(topo.node_of(RankId(rank as u32)), t),
                None => t,
            }
        };

        // One channel's delivery schedule. `drain` is the time the receiver
        // begins consuming (None = capacity-free planning pass). Returns
        // (first_delivery, last_delivery, last_departure, stall, buffered_hw,
        // batches).
        let run_channel = |s: usize, d: usize, b: u64, drain: Option<f64>| {
            let (src, dst) = (RankId(s as u32), RankId(d as u32));
            let k = b.div_ceil(batch_bytes).clamp(1, MAX_BATCHES_PER_CHANNEL);
            let (base, rem) = (b / k, b % k);
            let window_start = produce_start[s].min(self.clocks[s]);
            let window = self.clocks[s] - window_start;
            let mut delivers: Vec<f64> = Vec::with_capacity(k as usize);
            let mut stall = 0.0;
            let mut last_depart = window_start;
            for i in 0..k {
                let sz = base + u64::from(i < rem);
                // Batch i becomes available once its share of the producer's
                // compute window has elapsed — transfer overlaps production.
                let avail = window_start + window * ((i + 1) as f64 / k as f64);
                let nominal = match delivers.last() {
                    Some(&prev) => avail.max(prev),
                    None => avail,
                };
                let mut depart = nominal;
                if let (Some(ds), true) = (drain, i as usize >= cap) {
                    // The buffer holds `cap` unconsumed batches; the oldest
                    // frees its slot when the receiver drains it.
                    depart = depart.max(ds.max(delivers[i as usize - cap]));
                }
                let depart = delay(s, depart);
                let deliver = delay(d, depart + net.p2p(&topo, src, dst, sz) * mult);
                stall += depart - nominal;
                last_depart = depart;
                delivers.push(deliver);
            }
            let buffered = match drain {
                Some(ds) => delivers.iter().filter(|&&t| t < ds).count() as u64,
                None => 0,
            };
            // `k >= 1`: the channel carries at least one batch.
            (delivers[0], delivers[delivers.len() - 1], last_depart, stall, buffered, k)
        };

        // Pass 1 (capacity-free) breaks the drain/delivery cycle: the
        // receiver starts draining once it is past its own work and its
        // earliest inbound batch has landed.
        let mut drain_start: Vec<f64> = self.clocks.clone();
        for d in 0..n {
            let mut first = f64::INFINITY;
            for s in 0..n {
                let b = send_bytes[s * n + d];
                if s != d && b > 0 {
                    first = first.min(run_channel(s, d, b, None).0);
                }
            }
            if first.is_finite() {
                drain_start[d] = drain_start[d].max(first);
            }
        }

        // Pass 2: the real schedule, with bounded buffers.
        let mut out = ExchangeCost {
            first_ready: self.clocks.clone(),
            all_ready: self.clocks.clone(),
            sender_stall: vec![0.0; n],
            batches: 0,
            active_channels: 0,
            stall_secs_total: 0.0,
            max_buffered: 0,
        };
        let mut first_arrival = vec![f64::INFINITY; n];
        for s in 0..n {
            let mut sender_done = self.clocks[s];
            for d in 0..n {
                let b = send_bytes[s * n + d];
                if s == d || b == 0 {
                    continue;
                }
                let (first, last, last_depart, stall, buffered, k) =
                    run_channel(s, d, b, Some(drain_start[d]));
                first_arrival[d] = first_arrival[d].min(first);
                out.all_ready[d] = out.all_ready[d].max(last);
                out.batches += k;
                out.active_channels += 1;
                out.stall_secs_total += stall;
                out.max_buffered = out.max_buffered.max(buffered);
                sender_done = sender_done.max(last_depart);
            }
            out.sender_stall[s] = (sender_done - self.clocks[s]).max(0.0);
        }
        // A receiver with inbound bytes may start once its *earliest*
        // batch has landed (and it is past its own work); with no inbound
        // it keeps its own clock.
        for (d, &arrival) in first_arrival.iter().enumerate() {
            if arrival.is_finite() {
                out.first_ready[d] = out.first_ready[d].max(arrival);
            }
        }
        for (clock, &stall) in self.clocks.iter_mut().zip(&out.sender_stall) {
            *clock += stall;
        }
        self.sync_faults();
        out
    }

    /// Personalized all-to-all where rank `r` sends `send_bytes[r]` bytes in
    /// total. Charges the exchange cost (bound by the heaviest sender) and
    /// synchronizes clocks.
    pub fn alltoallv_cost(&mut self, send_bytes: &[u64]) -> f64 {
        assert_eq!(send_bytes.len(), self.clocks.len(), "one send size per rank required");
        let max_send = send_bytes.iter().copied().max().unwrap_or(0);
        let t = self.elapsed()
            + self.net.alltoallv(self.topo.total_ranks(), max_send) * self.net_cost_mult();
        self.sync_live_clocks_to(t);
        self.sync_faults();
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Cluster {
        Cluster::new(Topology::new(2, 4), NetworkModel::ideal(), 1)
    }

    #[test]
    fn execute_runs_every_rank_in_order() {
        let mut c = small();
        let ids = c.execute("ids", |ctx| ctx.rank().0);
        assert_eq!(ids, (0..8).collect::<Vec<u32>>());
    }

    #[test]
    fn charges_advance_only_the_charging_rank() {
        let mut c = small();
        c.execute("work", |ctx| {
            if ctx.rank().0 == 3 {
                ctx.charge(5.0);
            }
        });
        assert_eq!(c.clocks()[3], 5.0);
        assert_eq!(c.clocks()[0], 0.0);
        assert_eq!(c.elapsed(), 5.0);
    }

    #[test]
    fn barrier_syncs_to_slowest_rank() {
        let mut c = small();
        c.execute("work", |ctx| ctx.charge(ctx.rank().0 as f64));
        c.barrier();
        assert!(c.clocks().iter().all(|&t| t == 7.0));
    }

    #[test]
    fn allreduce_returns_global_value_and_syncs() {
        let mut c = small();
        c.execute("work", |ctx| ctx.charge(1.0));
        let locals: Vec<f64> = (0..8).map(|r| r as f64).collect();
        let sum = c.allreduce_f64(&locals, ReduceOp::Sum);
        assert_eq!(sum, 28.0);
        let t0 = c.clocks()[0];
        assert!(c.clocks().iter().all(|&t| t == t0));
    }

    #[test]
    fn rank_rng_is_deterministic_across_runs() {
        let draw = || {
            let mut c = Cluster::new(Topology::new(1, 4), NetworkModel::ideal(), 99);
            c.execute("draw", |ctx| ctx.rng().next_u64())
        };
        assert_eq!(draw(), draw());
    }

    #[test]
    fn rank_rng_differs_across_ranks_and_phases() {
        let mut c = Cluster::new(Topology::new(1, 2), NetworkModel::ideal(), 7);
        let a = c.execute("p0", |ctx| ctx.rng().next_u64());
        let b = c.execute("p1", |ctx| ctx.rng().next_u64());
        assert_ne!(a[0], a[1], "ranks must have independent streams");
        assert_ne!(a[0], b[0], "phases must have independent streams");
    }

    #[test]
    fn threaded_phase_keeps_shard_rng_streams_and_clocks() {
        // 256 shards of 100 µs: long enough for the pool to fan out.
        let run = |fanout: Fanout| {
            let mut c = Cluster::new(Topology::new(16, 16), NetworkModel::ideal(), 5);
            c.execute("warm-up", |_| ());
            let (draws, _) = c.execute_with_speculation(false, fanout, |ctx| {
                std::thread::sleep(std::time::Duration::from_micros(100));
                ctx.charge(1e-3 * f64::from(ctx.rank().0 % 7));
                ctx.rng().next_u64()
            });
            (draws, c.clocks().to_vec())
        };
        let (draws, clocks) = run(Fanout::Host);
        for (s, &d) in draws.iter().enumerate() {
            // Phase 1's stream for shard s, exactly as the sequential
            // executor derived it.
            let expected = SplitMix64::new(5, 0x1_0000_0001 ^ s as u64).next_u64();
            assert_eq!(d, expected, "shard {s} drew from another stream");
        }
        let (one_draws, one_clocks) = run(Fanout::One);
        assert_eq!(draws, one_draws, "one worker and every core draw the same bits");
        assert_eq!(clocks, one_clocks, "and charge the same clocks");
    }

    #[test]
    fn network_costs_show_up_in_elapsed() {
        let mut c = Cluster::new(Topology::new(4, 2), NetworkModel::slingshot(), 1);
        c.barrier();
        assert!(c.elapsed() > 0.0, "slingshot barrier must cost time");
    }

    #[test]
    fn charge_all_advances_every_rank_past_the_slowest() {
        let mut c = small();
        c.execute("work", |ctx| ctx.charge(ctx.rank().0 as f64));
        c.charge_all(2.0);
        assert!(c.clocks().iter().all(|&t| (t - 9.0).abs() < 1e-12), "{:?}", c.clocks());
        // Garbage charges are ignored rather than corrupting the clock.
        c.charge_all(-1.0);
        c.charge_all(f64::NAN);
        assert!((c.elapsed() - 9.0).abs() < 1e-12);
    }

    #[test]
    fn reset_clears_time() {
        let mut c = small();
        c.execute("work", |ctx| ctx.charge(2.0));
        c.barrier();
        c.reset_clocks();
        assert_eq!(c.elapsed(), 0.0);
    }

    #[test]
    fn straggler_ranks_dilate_busy_time() {
        use crate::faults::{FaultConfig, FaultPlane};
        let mut c = Cluster::new(Topology::new(1, 8), NetworkModel::ideal(), 1);
        c.attach_faults(Arc::new(FaultPlane::new(
            1,
            FaultConfig::stragglers_only(1.0, 4.0),
            1,
            8,
            100.0,
        )));
        c.execute("w", |ctx| ctx.charge(1.0));
        assert!(c.clocks().iter().all(|&t| (t - 4.0).abs() < 1e-12), "{:?}", c.clocks());
        // The plane's cursor followed the cluster clock.
        assert!((c.faults().unwrap().now() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn degraded_link_slows_collectives() {
        use crate::faults::{FaultConfig, FaultPlane, LinkConfig};
        let mut healthy = Cluster::new(Topology::new(4, 2), NetworkModel::slingshot(), 1);
        let t_healthy = healthy.barrier();

        let plane = Arc::new(FaultPlane::new(
            3,
            FaultConfig::link_only(LinkConfig {
                mean_healthy_secs: 1.0,
                mean_degraded_secs: 0.5,
                latency_mult: 10.0,
                bandwidth_mult: 0.1,
            }),
            4,
            8,
            100.0,
        ));
        // Park the cursor inside the first degradation window.
        let mut t = 0.0;
        while !plane.link_factors_at(t).degraded() {
            t += 0.01;
            assert!(t < 100.0, "no degraded window scheduled");
        }
        plane.advance_to(t + 1e-6);
        let mut degraded = Cluster::new(Topology::new(4, 2), NetworkModel::slingshot(), 1);
        degraded.attach_faults(plane);
        let t_degraded = degraded.barrier();
        assert!(
            t_degraded > 5.0 * t_healthy,
            "degraded barrier {t_degraded} vs healthy {t_healthy}"
        );
    }

    #[test]
    fn raise_clocks_is_per_rank_and_monotone() {
        let mut c = small();
        c.execute("work", |ctx| ctx.charge(ctx.rank().0 as f64));
        let mut times = vec![0.0; 8];
        times[0] = 3.0; // raise a fast rank
        times[7] = 1.0; // below rank 7's clock: ignored
        times[2] = f64::NAN; // garbage: ignored
        c.raise_clocks(&times);
        assert_eq!(c.clocks()[0], 3.0);
        assert_eq!(c.clocks()[7], 7.0);
        assert_eq!(c.clocks()[2], 2.0);
    }

    #[test]
    fn streamed_exchange_empty_matrix_imposes_no_dependency() {
        let mut c = Cluster::new(Topology::new(4, 1), NetworkModel::slingshot(), 1);
        c.execute("work", |ctx| ctx.charge(ctx.rank().0 as f64));
        let starts = vec![0.0; 4];
        let out = c.streamed_exchange_cost(&[0u64; 16], &starts, 1 << 16, 4);
        assert_eq!(out.batches, 0);
        assert_eq!(out.active_channels, 0);
        assert_eq!(out.stall_secs_total, 0.0);
        for r in 0..4 {
            assert_eq!(out.first_ready[r], c.clocks()[r]);
            assert_eq!(out.all_ready[r], c.clocks()[r]);
        }
    }

    #[test]
    fn streamed_exchange_beats_barrier_when_shards_are_empty() {
        // Rank 0 is slow; rank 3 receives nothing from it. Under BSP the
        // barrier would stall rank 3 at rank 0's clock; streamed, rank 3's
        // readiness only tracks its actual senders.
        let mut c = Cluster::new(Topology::new(4, 1), NetworkModel::slingshot(), 1);
        let starts = c.clocks().to_vec();
        c.execute("work", |ctx| ctx.charge(if ctx.rank().0 == 0 { 100.0 } else { 1.0 }));
        let mut m = vec![0u64; 16];
        m[7] = 1 << 20; // 1 -> 3
        m[2] = 1 << 20; // 0 -> 2 (depends on the straggler)
        let out = c.streamed_exchange_cost(&m, &starts, 1 << 16, 4);
        assert!(out.all_ready[3] < 2.0, "rank 3 waits only on rank 1: {}", out.all_ready[3]);
        assert!(out.all_ready[2] >= 100.0, "rank 2 depends on the slow sender");
    }

    #[test]
    fn streamed_exchange_overlaps_transfer_with_production() {
        // One sender, one receiver, many batches: the first batch lands
        // while the sender is still producing, and the last lands shortly
        // after production ends — not `k * wire` after.
        let mut c = Cluster::new(Topology::new(2, 1), NetworkModel::slingshot(), 1);
        let starts = c.clocks().to_vec();
        c.execute("produce", |ctx| {
            if ctx.rank().0 == 0 {
                ctx.charge(1.0);
            }
        });
        let mut m = vec![0u64; 4];
        m[1] = 64 << 20; // 0 -> 1, 64 MiB in 1 MiB batches
        let out = c.streamed_exchange_cost(&m, &starts, 1 << 20, 8);
        assert_eq!(out.batches, 64);
        assert!(out.first_ready[1] < 0.1, "first batch lands early: {}", out.first_ready[1]);
        let wire_all = 64.0 * c.network().p2p(c.topology(), RankId(0), RankId(1), 1 << 20);
        assert!(
            out.all_ready[1] < 1.0 + wire_all,
            "transfer overlapped production: {} vs serial {}",
            out.all_ready[1],
            1.0 + wire_all
        );
    }

    #[test]
    fn streamed_exchange_backpressure_stalls_sender_and_bounds_buffers() {
        // The receiver is far behind its inbound flow (it drains only once
        // its own 10s of work are done), so a tiny buffer must fill and
        // stall the sender; a roomy buffer must not.
        let run = |cap: usize| {
            let mut c = Cluster::new(Topology::new(2, 1), NetworkModel::slingshot(), 1);
            let starts = c.clocks().to_vec();
            c.execute("produce", |ctx| ctx.charge(if ctx.rank().0 == 0 { 0.001 } else { 10.0 }));
            let mut m = vec![0u64; 4];
            m[1] = 64 << 20; // 0 -> 1
            c.streamed_exchange_cost(&m, &starts, 1 << 20, cap)
        };
        let tight = run(2);
        let roomy = run(1024);
        assert!(tight.stall_secs_total > 0.0, "cap 2 must backpressure the sender");
        assert!(tight.max_buffered <= 2, "buffer cap violated: {}", tight.max_buffered);
        assert_eq!(roomy.stall_secs_total, 0.0, "cap 1024 holds all 64 batches");
        assert!(tight.sender_stall[0] > 0.0);
        assert!(
            tight.all_ready[1] >= 10.0,
            "stalled deliveries finish after the receiver drains: {}",
            tight.all_ready[1]
        );
    }

    #[test]
    fn a_full_channel_across_a_crash_window_charges_stall_and_delay() {
        use crate::faults::{FaultConfig, FaultPlane};
        // One channel, rank 0 -> rank 1, 4 KiB batches, two batches of
        // buffer. The receiver is busy until the middle of a crash window
        // on its node, so the sender fills the buffer and stalls until the
        // drain, and every batch sent after the drain lands inside the
        // window and must wait it out.
        let (plane, (ws, we)) = (0..64)
            .find_map(|seed| {
                let p = FaultPlane::new(seed, FaultConfig::crashes_only(2.0e-3, 1.0e-3), 2, 2, 1.0);
                let w = p
                    .crash_windows(NodeId(1))
                    .iter()
                    .copied()
                    .find(|&(s, e)| s > 0.01 && e - s > 1.0e-4)?;
                Some((Arc::new(p), w))
            })
            .expect("a crash window on the receiver's node");
        let drain = (ws + we) / 2.0;
        let run = |faults: bool| {
            let mut c = Cluster::new(Topology::new(2, 1), NetworkModel::slingshot(), 1);
            if faults {
                c.attach_faults(Arc::clone(&plane));
            }
            let starts = c.clocks().to_vec();
            c.execute("produce", |ctx| ctx.charge(if ctx.rank().0 == 0 { 1.0e-3 } else { drain }));
            let produced = c.clocks()[0];
            let mut m = vec![0u64; 4];
            m[1] = 32 << 10; // 0 -> 1, eight batches of 4 KiB
            let out = c.streamed_exchange_cost(&m, &starts, 1 << 12, 2);
            (out, c.clocks()[0] - produced)
        };
        let (crash, charged) = run(true);
        let (calm, _) = run(false);
        assert!(crash.max_buffered <= 2, "buffer cap violated: {}", crash.max_buffered);
        assert!(crash.sender_stall[0] >= drain - 1.0e-3, "stall: {}", crash.sender_stall[0]);
        assert!(
            (charged - crash.sender_stall[0]).abs() < 1e-12,
            "the sender's clock pays the stall"
        );
        assert!(
            crash.all_ready[1] >= we,
            "delivery waits out the window: {} < {we}",
            crash.all_ready[1]
        );
        assert!(calm.all_ready[1] < we, "without the crash the flow ends in the window");
        assert!(
            crash.stall_secs_total > calm.stall_secs_total,
            "the window also delays departures"
        );
    }

    #[test]
    fn streamed_exchange_crash_window_delays_single_channel() {
        use crate::faults::{FaultConfig, FaultPlane};
        // Find a seed/plane whose node 0 has a crash window, then check a
        // delivery scheduled inside it is pushed past the window while a
        // channel between healthy nodes is unaffected.
        let plane =
            Arc::new(FaultPlane::new(5, FaultConfig::crashes_only(2.0e-3, 1.0e-3), 4, 4, 10.0));
        let down = (0..4)
            .map(NodeId)
            .find(|&nd| !plane.crash_windows(nd).is_empty())
            .expect("crash schedule must contain a window");
        let (ws, we) = plane.crash_windows(down)[0];
        let mut c = Cluster::new(Topology::new(4, 1), NetworkModel::slingshot(), 1);
        c.attach_faults(plane);
        // Park every clock just inside the window.
        let t0 = (ws + we) / 2.0;
        c.charge_all(t0);
        let starts = c.clocks().to_vec();
        let sender = down.0 as usize;
        let healthy: Vec<usize> = (0..4).filter(|&r| r != sender).collect();
        let mut m = vec![0u64; 16];
        m[sender * 4 + healthy[0]] = 1 << 10; // channel through the down node
        m[healthy[1] * 4 + healthy[2]] = 1 << 10; // healthy channel
        let out = c.streamed_exchange_cost(&m, &starts, 1 << 20, 4);
        assert!(
            out.all_ready[healthy[0]] >= we,
            "delivery from the down node must wait out the window: {} < {we}",
            out.all_ready[healthy[0]]
        );
        assert!(
            out.all_ready[healthy[2]] < we,
            "the healthy channel must not wait for the unrelated crash: {}",
            out.all_ready[healthy[2]]
        );
    }

    #[test]
    fn retired_ranks_freeze_and_stop_bounding_elapsed() {
        let mut c = small();
        c.execute("work", |ctx| ctx.charge(ctx.rank().0 as f64)); // rank 7 at 7.0
        c.retire_rank(RankId(7));
        assert!(!c.is_live(RankId(7)));
        assert_eq!(c.live_count(), 7);
        assert_eq!(c.elapsed(), 6.0, "dead rank no longer bounds elapsed");
        let frozen = c.clocks()[7];
        c.barrier();
        assert_eq!(c.clocks()[7], frozen, "collectives leave dead clocks frozen");
        assert!(c.clocks()[..7].iter().all(|&t| t >= 6.0));
        c.charge_all(1.0);
        assert_eq!(c.clocks()[7], frozen);
        let mut times = vec![f64::INFINITY; 8];
        times[7] = 1e9;
        times[0] = c.clocks()[0] + 1.0;
        c.raise_clocks(&times);
        assert_eq!(c.clocks()[7], frozen, "raise_clocks skips dead ranks");
    }

    #[test]
    fn reassigned_shards_run_on_the_new_owner_clock_with_same_results() {
        // Baseline: identity owners.
        let mut a = small();
        let base = a.execute("w", |ctx| {
            ctx.charge(1.0);
            (ctx.rank().0, ctx.rng().next_u64())
        });
        // Same phase with shards 6,7 re-owned by rank 0: results (incl.
        // the per-shard rng stream) are identical, only clocks move.
        let mut b = small();
        b.retire_rank(RankId(7));
        b.assign_shard(6, RankId(0));
        b.assign_shard(7, RankId(0));
        assert_eq!(b.owner_of(6), RankId(0));
        let moved = b.execute("w", |ctx| {
            ctx.charge(1.0);
            (ctx.rank().0, ctx.rng().next_u64())
        });
        assert_eq!(base, moved, "shard identity drives the data plane, not ownership");
        assert!((b.clocks()[0] - 3.0).abs() < 1e-12, "rank 0 paid for 3 shards serially");
        assert!((b.clocks()[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn rebalance_owners_moves_work_without_changing_results() {
        let mut a = small();
        let base = a.execute("w", |ctx| {
            ctx.charge(1.0);
            (ctx.rank().0, ctx.rng().next_u64())
        });
        // Concentrate all 8 shards onto ranks {0, 1} — the elastic
        // scale-in shape (nodes 1..4 drained).
        let mut b = small();
        let active = [RankId(0), RankId(1)];
        assert_eq!(b.rebalance_owners(&active), 6, "six shards changed owners");
        assert_eq!(b.rebalance_owners(&active), 0, "idempotent on re-application");
        for s in 0..8 {
            assert_eq!(b.owner_of(s), active[s % 2]);
        }
        let moved = b.execute("w", |ctx| {
            ctx.charge(1.0);
            (ctx.rank().0, ctx.rng().next_u64())
        });
        assert_eq!(base, moved, "rebalance is invisible in results");
        assert!((b.clocks()[0] - 4.0).abs() < 1e-12, "each survivor pays for 4 shards");
        assert!((b.clocks()[2] - 0.0).abs() < 1e-12, "drained ranks pay nothing");
        // Scaling back out redistributes onto the full rank set.
        let all: Vec<RankId> = (0..8).map(RankId).collect();
        assert_eq!(b.rebalance_owners(&all), 6);
        assert_eq!(b.rebalance_owners(&[]), 0, "empty active set is a no-op");
        for s in 0..8 {
            assert_eq!(b.owner_of(s), RankId(s as u32));
        }
    }

    #[test]
    fn speculation_charges_losing_hedges_honestly() {
        // Rank 0 has genuinely more work (not dilation), so re-running the
        // remainder elsewhere at the same speed finishes in a dead heat —
        // and ties go to the original. The hedge still launches (the lag
        // threshold fired) and its host is charged until cancellation.
        let run = |speculate: bool| {
            let mut c = Cluster::new(Topology::new(1, 4), NetworkModel::ideal(), 1);
            let (out, rep) = c.execute_with_speculation(speculate, Fanout::Host, |ctx| {
                ctx.charge(if ctx.rank().0 == 0 { 10.0 } else { 1.0 });
                ctx.rank().0
            });
            (out, rep, c.clocks().to_vec())
        };
        let (out_off, rep_off, _) = run(false);
        let (out_on, rep_on, clocks_on) = run(true);
        assert_eq!(out_off, out_on, "speculation never touches the data plane");
        assert_eq!(rep_off, SpeculationReport::default());
        assert_eq!(rep_on.launched, 1);
        assert_eq!(rep_on.wins, 0, "equal-speed re-run cannot beat the original");
        assert_eq!(rep_on.losses, 1);
        assert_eq!(rep_on.first_win, None);
        assert!((clocks_on[0] - 10.0).abs() < 1e-9, "original still finishes at 10");
        // Host rank 1 (lowest id among the least-loaded) paid until the
        // original finished and the copy was cancelled.
        assert!((clocks_on[1] - 10.0).abs() < 1e-9, "loser charged: {:?}", clocks_on);
        assert!((clocks_on[2] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn speculation_reports_merge_counts_and_keep_the_first_win() {
        let phase = |launched: u64, first_win: Option<(u32, f64)>| SpeculationReport {
            launched,
            wins: first_win.map_or(0, |_| 1),
            losses: launched - first_win.map_or(0, |_| 1),
            saved_secs: 0.25 * launched as f64,
            first_win,
        };
        let mut total = SpeculationReport::default();
        total.merge(&phase(2, None));
        total.merge(&phase(3, Some((4, 1.5))));
        total.merge(&phase(1, Some((2, 9.0))));
        let want = SpeculationReport {
            launched: 6,
            wins: 2,
            losses: 4,
            saved_secs: 1.5,
            first_win: Some((4, 1.5)),
        };
        assert_eq!(total, want);
    }

    #[test]
    fn speculation_wins_when_the_original_is_dilated() {
        use crate::faults::{FaultConfig, FaultPlane};
        // Fraction 1.0 stragglers with slowdown 6: every rank is dilated,
        // so hedge copies run at the same dilated speed and cannot win.
        // Instead pin dilation to a subset via seeds: search a seed where
        // rank 0 straggles and rank 1 does not.
        let seed = (0..64)
            .find(|&s| {
                let p = FaultPlane::new(s, FaultConfig::stragglers_only(0.3, 6.0), 1, 4, 100.0);
                p.straggler_factor(RankId(0)) > 1.0
                    && (1..4).any(|r| p.straggler_factor(RankId(r)) == 1.0)
            })
            .expect("a seed with a mixed straggler set");
        let mk = |speculate: bool| {
            let mut c = Cluster::new(Topology::new(1, 4), NetworkModel::ideal(), 1);
            c.attach_faults(Arc::new(FaultPlane::new(
                seed,
                FaultConfig::stragglers_only(0.3, 6.0),
                1,
                4,
                100.0,
            )));
            let (out, rep) = c.execute_with_speculation(speculate, Fanout::Host, |ctx| {
                ctx.charge(1.0);
                ctx.rank().0
            });
            (out, rep, c.elapsed())
        };
        let (out_off, _, t_off) = mk(false);
        let (out_on, rep, t_on) = mk(true);
        assert_eq!(out_off, out_on);
        assert!(rep.launched >= 1, "6x dilation past a 1.5x threshold must hedge");
        assert!(rep.wins >= 1, "an undilated host beats a 6x straggler");
        assert!(t_on < t_off, "winning hedges shorten the critical path: {t_on} vs {t_off}");
        assert!(rep.saved_secs > 0.0);
        // Determinism: same seed, same report.
        let (_, rep2, _) = mk(true);
        assert_eq!(rep, rep2);
    }

    #[test]
    fn alltoallv_bound_by_heaviest_sender() {
        let mut c = Cluster::new(Topology::new(4, 1), NetworkModel::slingshot(), 1);
        let mut light = vec![0u64; 4];
        light[0] = 1 << 10;
        let t_light = c.alltoallv_cost(&light);
        c.reset_clocks();
        let mut heavy = vec![0u64; 4];
        heavy[0] = 1 << 30;
        let t_heavy = c.alltoallv_cost(&heavy);
        assert!(t_heavy > t_light);
    }
}
