//! The exchange: where rows move between ranks and what moving them
//! costs. The join's hash repartition on its key (or its broadcast of a
//! cross product's smaller side), the rank-local joins, and the close of a
//! phase.
//!
//! This is the only module that knows BSP from pipelined. BSP charges a
//! join's exchange as one `alltoallv` and ends every phase with a barrier.
//! Pipelined mode streams the moved rows' sub-batches through per-channel
//! queues ([`Cluster::streamed_exchange_cost`]) and leaves the per-rank
//! clocks skewed. The data plane is the same in both modes.

use super::options::{
    BATCH_DISPATCH_SECS, BATCH_ROWS, EXCHANGE_BATCH_BYTES, EXCHANGE_CHANNEL_CAPACITY,
};
use super::{stage_overflow, ExecError, ExecOptions};
use ids_graph::batch::{BatchView, ColumnSlice};
use ids_graph::ops as gops;
use ids_graph::stage::{partition_permutation, IdBuffers};
use ids_graph::{placement, StageBatch, TermId};
use ids_obs::MetricsRegistry;
use ids_simrt::pool::map_shards_with;
use ids_simrt::sync::lock;
use ids_simrt::{Cluster, Fanout};
use std::sync::Mutex;

/// Aggregate of one stage's streamed exchanges (pipelined mode).
#[derive(Debug, Default, Clone, Copy)]
pub(super) struct ExchangeTally {
    pub(super) channels: u64,
    pub(super) batches: u64,
}

/// End a scan or FILTER/APPLY phase. BSP syncs the world with a barrier;
/// pipelined mode leaves the per-rank clocks skewed — the next stage's
/// dependencies (its exchange channels, its own input, or the gather
/// collective) are the only synchronization.
pub(super) fn close_phase(cluster: &mut Cluster, opts: &ExecOptions) {
    if !opts.pipelined {
        cluster.barrier();
    }
}

/// How much of [`ExecOptions::join_secs_per_row`] batching amortizes away:
/// a batched join charges `join_secs_per_row / JOIN_AMORTIZATION` per row.
const JOIN_AMORTIZATION: f64 = 4.0;

/// The virtual seconds one rank's join over `rows` rows charges:
/// `⌈rows / BATCH_ROWS⌉` dispatches (at least one) plus the amortized
/// per-row cost.
fn join_cost(rows: usize, opts: &ExecOptions) -> f64 {
    let batches = join_batches(rows);
    batches as f64 * BATCH_DISPATCH_SECS + rows as f64 * opts.join_secs_per_row / JOIN_AMORTIZATION
}

/// The batches a rank's join over `rows` rows dispatches.
fn join_batches(rows: usize) -> usize {
    rows.div_ceil(BATCH_ROWS).max(1)
}

/// Batch observability series for one operator, pre-resolved so a
/// phase's meters cost no registry lookup. Recorded on the calling thread
/// after the phase, in rank order: workers write none of these series,
/// and the series are a function of the query alone.
pub(super) struct BatchMeter {
    batches: ids_obs::Counter,
    rows: ids_obs::Histogram,
}

impl BatchMeter {
    pub(super) fn new(metrics: &MetricsRegistry, op: &str) -> Self {
        Self {
            batches: metrics.counter_with("ids_engine_batches_total", "op", op.to_string()),
            rows: metrics.histogram("ids_engine_batch_rows"),
        }
    }

    /// Record each rank's `(rows, batches)` in order: `batches` dispatches
    /// of `BATCH_ROWS` rows each over `rows` rows, the last one (or the one
    /// of an empty rank) holding what is left.
    pub(super) fn record(&self, ranks: impl Iterator<Item = (usize, usize)>) {
        let mut total = 0;
        self.rows.observe_all(ranks.flat_map(|(rows, batches)| {
            total += batches as u64;
            (0..batches).map(move |b| rows.saturating_sub(b * BATCH_ROWS).min(BATCH_ROWS) as f64)
        }));
        self.batches.add(total);
    }
}

/// Hash-partition the sides that are not already placed on the join key,
/// exchange, and join rank-locally; returns the joined stage and the
/// variable it is placed on.
///
/// A side arrives with the variable it is placed on (`Some(v)`: every row
/// sits on the rank [`ids_graph::placement`] gives its `v`). The exchange
/// key is one shared variable — rows with equal composite keys agree on
/// every component, so one column places them together: one both sides
/// are placed on, else one either side is placed on, else the first
/// shared variable. Only sides not placed on it move.
///
/// BSP mode charges the exchange as one `alltoallv` of the moved sides'
/// bytes, bound by the heaviest sender, and closes the stage with a
/// barrier. Pipelined mode streams the moved sides' per-(src,dst)
/// sub-batches through the α·β model as the producing window
/// (`produce_start` → current clocks) advances: each rank starts joining
/// when its first inbound batch lands, finishes no earlier than its last,
/// and nobody waits for unrelated ranks. The data plane — repartitioned
/// rows, join, output order — is identical in both modes.
///
/// Each pool worker joins its ranks into a [`ids_graph::stage::StagePart`]
/// of its own ([`gops::JoinWorker`], one reused scratch per worker), and
/// the parts make the joined stage in rank order. The exchange's and the
/// join's inputs go back to `buffers` once read, and its outputs come from
/// it.
#[allow(clippy::too_many_arguments)]
pub(super) fn distributed_join(
    cluster: &mut Cluster,
    (left, left_placed): (StageBatch, Option<String>),
    (right, right_placed): (StageBatch, Option<String>),
    opts: &ExecOptions,
    metrics: &MetricsRegistry,
    produce_start: &[f64],
    tally: &mut ExchangeTally,
    buffers: &IdBuffers,
) -> Result<(StageBatch, Option<String>), ExecError> {
    let ranks = left.ranks();
    // One output layout for every rank: the exchange keeps each side's
    // schema, so each rank's inputs are the ones it was built for.
    let schema = gops::join_schema(left.schema(), right.schema());
    // A side has at most one placed variable, so "left's, then right's"
    // also finds one both sides are placed on.
    let shared = |v: &&String| left.vars().contains(v) && right.vars().contains(v);
    let key = [&left_placed, &right_placed]
        .into_iter()
        .flatten()
        .find(shared)
        .or_else(|| left.vars().iter().find(shared))
        .cloned();
    let side = |moved: bool| {
        let label = if moved { "moved" } else { "placed" };
        metrics.counter_with("ids_exchange_sides_total", "side", label.to_string()).inc();
    };

    // Pipelined mode prices the exchange from `matrix[s * ranks + d]`, the
    // wire bytes from rank s to rank d; BSP from `exchanged_bytes`, the
    // aggregate. A cross product broadcasts its smaller side (which counts
    // as moved): every rank joins with all of it, and the output stays
    // where the other side's rows were.
    let mut matrix = opts.pipelined.then(|| vec![0u64; ranks * ranks]);
    let (left, right, whole, exchanged_bytes, placed) = match key {
        None => {
            let small_is_left = left.len() <= right.len();
            side(true);
            side(false);
            let small = if small_is_left { &left } else { &right };
            if let Some(matrix) = &mut matrix {
                // Each rank ships its shard of the small side to every peer.
                for s in 0..ranks {
                    let b = small.segment_byte_size(s);
                    for d in (0..ranks).filter(|&d| d != s) {
                        matrix[s * ranks + d] = b;
                    }
                }
            }
            let bytes = small.merged_byte_size() * ranks as u64;
            let placed = if small_is_left { right_placed } else { left_placed };
            (left, right, (small_is_left, !small_is_left), bytes, placed)
        }
        Some(key) => {
            let mut bytes = 0;
            let mut place = |stage: StageBatch, placed: Option<String>| {
                let moved = placed.as_ref() != Some(&key);
                side(moved);
                if !moved {
                    return Ok(stage);
                }
                let (out, perm) = repartition(&stage, &key, buffers)?;
                if let Some(matrix) = matrix.as_deref_mut() {
                    add_streamed_bytes(&stage, &out, &perm, BATCH_ROWS, matrix);
                }
                buffers.give_u32(perm);
                buffers.give_stage(stage);
                bytes += out.byte_size();
                Ok::<_, ExecError>(out)
            };
            let l = place(left, left_placed)?;
            let r = place(right, right_placed)?;
            (l, r, (false, false), bytes, Some(key))
        }
    };

    // Charge the exchange. The byte matrix is indexed by *shard*; streamed
    // channels connect *physical* ranks, so fold it through the ownership
    // map first: a re-planned shard's traffic originates from (and lands
    // on) its surviving owner, and a dead rank is never a channel endpoint
    // — its in-flight batches are discarded with the stage and replayed
    // from the producer-side checkpoint. With identity ownership the fold
    // is a no-op (diagonal entries were already skipped by the cost model).
    let exchange = match matrix {
        Some(matrix) => {
            let matrix = fold_matrix_by_owner(cluster, &matrix, ranks);
            let xc = cluster.streamed_exchange_cost(
                &matrix,
                produce_start,
                EXCHANGE_BATCH_BYTES,
                EXCHANGE_CHANNEL_CAPACITY,
            );
            let wire: u64 = matrix
                .iter()
                .enumerate()
                .filter(|(i, _)| i / ranks != i % ranks)
                .map(|(_, &b)| b)
                .sum();
            // The streamed exchange's series, for EXPLAIN's `exchange:` block.
            let join = || "join".to_string();
            metrics.counter_with("ids_exchange_batches_total", "op", join()).add(xc.batches);
            metrics.counter_with("ids_exchange_bytes_total", "op", join()).add(wire);
            let channels = metrics.counter_with("ids_exchange_channels_total", "op", join());
            channels.add(xc.active_channels);
            let stall = metrics.histogram("ids_exchange_stall_secs");
            xc.sender_stall.iter().filter(|&&s| s > 0.0).for_each(|&s| stall.observe(s));
            metrics.histogram("ids_exchange_buffered_batches").observe(xc.max_buffered as f64);
            tally.channels += xc.active_channels;
            tally.batches += xc.batches;
            // Each rank may start joining once its first inbound batch lands.
            cluster.raise_clocks(&xc.first_ready);
            Some(xc)
        }
        None => {
            let per_rank = exchanged_bytes / ranks.max(1) as u64;
            cluster.alltoallv_cost(&vec![per_rank; ranks]);
            None
        }
    };

    // Rank-local joins: each worker joins its ranks into a part of the
    // stage of its own, with one scratch for all of them; per-batch
    // dispatch with an amortized per-row probe on each rank's clock. As
    // in the scan, the first worker may join every rank, so its part has
    // room for a key join's usual output: one row per row of its larger
    // input; helpers grow to their share through the run's buffers, in
    // chunks of at most `stage::CHUNK_ROWS` rows.
    let meter = BatchMeter::new(metrics, "join");
    let rows = |w| if w == 0 { left.len().max(right.len()) } else { 0 };
    let init = |w| (w, gops::JoinWorker::with_capacity(&schema, rows(w), buffers));
    let (spans, workers, _) =
        cluster.execute_with_state(false, Fanout::Host, init, |(w, jw), ctx| {
            let r = ctx.rank().index();
            let (lv, rv) = (join_input(&left, whole.0, r), join_input(&right, whole.1, r));
            let (first, n) = jw.join(&schema, lv, rv, buffers);
            ctx.charge(join_cost(lv.len() + rv.len() + n, opts));
            (*w, first, n)
        });
    meter.record(spans.iter().enumerate().map(|(r, &(_, _, n))| {
        let rows = join_input(&left, whole.0, r).len() + join_input(&right, whole.1, r).len() + n;
        (rows, join_batches(rows))
    }));
    let parts = workers.into_iter().map(|(_, jw)| jw.into_part()).collect();
    let joined = StageBatch::assemble(schema.vars().clone(), parts, &spans, buffers)
        .ok_or_else(stage_overflow)?;
    buffers.give_stage(left);
    buffers.give_stage(right);
    match exchange {
        Some(xc) => {
            // A rank's join cannot complete before its last inbound batch
            // arrived — but it never waits for anyone else's channels.
            cluster.raise_clocks(&xc.all_ready);
        }
        None => {
            cluster.barrier();
        }
    }
    Ok((joined, placed))
}

/// Rank `r`'s input on one side of a join: its segment, or the whole
/// side when `whole` (the broadcast side of a cross product).
fn join_input(side: &StageBatch, whole: bool, r: usize) -> BatchView<'_> {
    if whole {
        side.view()
    } else {
        side.segment(r)
    }
}

/// Fold a shard-indexed wire-byte matrix into a rank-indexed one through
/// the cluster's shard-ownership map, dropping same-owner traffic (it
/// never crosses the wire). Identity ownership reproduces the input minus
/// its diagonal, which the streamed cost model ignores anyway.
fn fold_matrix_by_owner(cluster: &Cluster, matrix: &[u64], ranks: usize) -> Vec<u64> {
    let mut out = vec![0u64; ranks * ranks];
    for s in 0..ranks {
        let so = cluster.owner_of(s).index();
        for d in 0..ranks {
            let b = matrix[s * ranks + d];
            if b == 0 {
                continue;
            }
            let dof = cluster.owner_of(d).index();
            if so != dof {
                out[so * ranks + dof] += b;
            }
        }
    }
    out
}

/// Rows per hashing job of an exchange.
const EXCHANGE_CHUNK_ROWS: usize = 1 << 14;

/// The exchange's placement rule: every row's destination rank,
/// [`ids_graph::placement`] of its `var` column — the store's rule for a
/// subject, so a scan is already where this would send it — in a buffer
/// from `buffers`, computed in chunks of rows on the shard pool. Part of
/// the engine's determinism contract: row placement fixes per-rank order,
/// which fixes every downstream charge.
fn destinations(stage: &StageBatch, var: &str, buffers: &IdBuffers) -> Result<Vec<u32>, ExecError> {
    // The key was chosen from this schema, so lookup only fails on an
    // internal planner bug — report it instead of panicking.
    let key = stage.var_index(var).ok_or_else(|| {
        ExecError::msg(format!("join key ?{var} missing from schema {:?}", stage.vars()))
    })?;
    let ranks = stage.ranks();
    if u32::try_from(ranks).is_err() {
        return Err(ExecError::msg("exchange exceeds the u32 rank index space"));
    }
    let all = stage.view();
    let mut dest = buffers.take_u32(all.len());
    dest.resize(all.len(), 0);
    // One job per chunk of rows, each writing its own slice of `dest`.
    let chunks: Vec<Mutex<&mut [u32]>> =
        dest.chunks_mut(EXCHANGE_CHUNK_ROWS).map(Mutex::new).collect();
    let rank_of = |id: u64| placement(TermId(id), ranks) as u32;
    map_shards_with(
        chunks.len(),
        Fanout::Host,
        |_| (),
        |_, k| {
            let mut out = lock(&chunks[k]);
            let start = k * EXCHANGE_CHUNK_ROWS;
            match all.column(key).slice(start..start + out.len()) {
                ColumnSlice::U32(ids) => {
                    out.iter_mut().zip(ids).for_each(|(d, &id)| *d = rank_of(u64::from(id)));
                }
                ColumnSlice::U64(ids) => {
                    out.iter_mut().zip(ids).for_each(|(d, &id)| *d = rank_of(id));
                }
            }
        },
    );
    drop(chunks);
    Ok(dest)
}

/// Redistribute rows so equal values of the join key `var` land on equal
/// ranks (the stage comes out placed on `var`): one stable counting sort
/// of the stage by destination, so destination `d`'s segment holds its
/// rows ordered by (source rank, row). Returns the placed stage and the
/// permutation it was gathered by (row `i` of the result is row `perm[i]`
/// of `stage`), in a buffer from `buffers`.
fn repartition(
    stage: &StageBatch,
    var: &str,
    buffers: &IdBuffers,
) -> Result<(StageBatch, Vec<u32>), ExecError> {
    let dest = destinations(stage, var, buffers)?;
    let placed = partition_permutation(&dest, stage.ranks(), buffers);
    buffers.give_u32(dest);
    let (perm, offsets) = placed.ok_or_else(stage_overflow)?;
    // One column per shard-pool job, each in a buffer from `buffers`.
    let (cols, _) = map_shards_with(
        stage.vars().len(),
        Fanout::Host,
        |_| (),
        |_, c| stage.gather_column(c, &perm, buffers),
    );
    Ok((StageBatch::from_columns(stage.schema().clone(), cols, offsets), perm))
}

/// Redistribute rows so equal values of the join key `var` land on equal
/// ranks (the stage comes out placed on `var`), as the join's exchange
/// does. Its buffers come from `buffers`, and the destinations and
/// permutation go back to it. Public so the micro benches can time the
/// exchange's data plane alone.
pub fn repartition_by_vars(
    stage: &StageBatch,
    var: &str,
    buffers: &IdBuffers,
) -> Result<StageBatch, ExecError> {
    let (out, perm) = repartition(stage, var, buffers)?;
    buffers.give_u32(perm);
    Ok(out)
}

/// Add to `matrix` (`ranks × ranks`, entry `src * ranks + dst`) the wire
/// bytes a streamed exchange of `stage` into `out`, gathered by `perm`,
/// ships.
///
/// A streamed flow ships its rows in sub-batches of `batch_rows` rows
/// ([`BATCH_ROWS`] in the engine), each choosing its own column widths
/// (eight bytes exactly when it holds an id past `u32::MAX`), so entry
/// `(src, dst)` grows by the sum of those sub-batches' exact sizes — what
/// a row-at-a-time sender filling and sending them would have put on the
/// wire. The channel they would travel through (its capacity, the
/// sender's stalls) is a cost-model concept, priced by
/// `Cluster::streamed_exchange_cost`; its data plane would only re-append
/// the rows in push order, which is what the counting sort does directly.
fn add_streamed_bytes(
    stage: &StageBatch,
    out: &StageBatch,
    perm: &[u32],
    batch_rows: usize,
    matrix: &mut [u64],
) {
    let ranks = stage.ranks();
    let batch_rows = batch_rows.max(1);
    let header: u64 = 2 + 8 + out.vars().iter().map(|v| 2 + v.len() as u64 + 1).sum::<u64>();
    let cols: Vec<ColumnSlice<'_>> = (0..out.vars().len()).map(|c| out.column(c)).collect();
    let sub_batch_bytes = |rows: std::ops::Range<usize>| -> u64 {
        let cells: u64 =
            cols.iter().map(|c| if c.slice(rows.clone()).has_wide_id() { 8 } else { 4 }).sum();
        header + rows.len() as u64 * cells
    };
    let src_of = |row: u32| stage.rank_offsets().partition_point(|&o| o <= row) - 1;
    for d in 0..ranks {
        let seg = out.segment_range(d);
        let mut p = seg.start;
        // The segment is in (source, row) order: one run per source.
        while p < seg.end {
            let src = src_of(perm[p]);
            let end_row = stage.rank_offsets()[src + 1];
            let run_end = p + perm[p..seg.end].partition_point(|&row| row < end_row);
            matrix[src * ranks + d] += (p..run_end)
                .step_by(batch_rows)
                .map(|a| sub_batch_bytes(a..(a + batch_rows).min(run_end)))
                .sum::<u64>();
            p = run_end;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::test_support::{
        assert_stage, per_rank_repartition, random_ranks, schema, stage_of, RankRows,
    };

    /// The repartition and the wire-byte matrix a streamed exchange with
    /// sub-batches of `batch_rows` rows would ship.
    fn repartition_streamed(
        stage: &StageBatch,
        var: &str,
        batch_rows: usize,
    ) -> (StageBatch, Vec<u64>) {
        let (out, perm) = repartition(stage, var, &IdBuffers::default()).unwrap();
        let mut bytes = vec![0u64; stage.ranks() * stage.ranks()];
        add_streamed_bytes(stage, &out, &perm, batch_rows, &mut bytes);
        (out, bytes)
    }

    #[test]
    fn streamed_repartition_matches_barriered_rows_and_order() {
        // Whatever the sub-batch size, the per-destination rows — and
        // their (src, row) order — must equal the barriered path's.
        let vars = schema(&["a", "b"]);
        let mut sets = Vec::new();
        let mut id = 0u64;
        for src in 0..3u64 {
            sets.push(RankRows::of(&vars, (id..id + src * 7 + 5).map(|i| vec![i % 13, i])));
            id += src * 7 + 5;
        }
        let stage = stage_of(&sets);
        let barriered = repartition_by_vars(&stage, "a", &IdBuffers::default()).unwrap();
        let (streamed, bytes) = repartition_streamed(&stage, "a", 4);
        assert_eq!(streamed, barriered);
        assert_eq!(bytes.len(), 9);
        assert!(bytes.iter().sum::<u64>() > 0);
    }

    /// The column-at-a-time repartition against the per-rank exchange it
    /// replaced. Sizes grow in release builds (`ci.sh` runs `cargo test
    /// -p ids-core --release -- kernels`).
    mod kernels {
        use super::*;
        use ids_simrt::rng::SplitMix64;
        use proptest::prelude::*;

        const FULL: bool = !cfg!(debug_assertions);

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(if FULL { 160 } else { 48 }))]

            /// `==` on every rank's rows, their per-destination order and
            /// column widths, so every later `byte_size()` agrees.
            #[test]
            fn repartition_equals_the_row_loop(
                seed in 0u64..1_000_000,
                // Few ranks and fat sources, or far more ranks than rows.
                ranks in prop_oneof![1usize..=16, 100usize..=(if FULL { 700 } else { 200 })],
                key in 0usize..2,
                domain in 1u64..=500,
                flags in 0u8..4,
            ) {
                let mut rng = SplitMix64::new(seed, 0x9a97);
                let vars = ["p", "k0", "q", "k1"];
                let key_var = ["k1", "k0"][key];
                let max_rows = if ranks > 16 { 3 } else if FULL { 4000 } else { 200 };
                let sets =
                    random_ranks(&vars, ranks, max_rows, domain, (flags & 1 != 0, flags & 2 != 0), &mut rng);

                let (want, _) = per_rank_repartition(&sets, key_var, 1);
                let stage = stage_of(&sets);
                assert_stage(&repartition_by_vars(&stage, key_var, &IdBuffers::default()).unwrap(), &want);

                for batch_rows in [1usize, 7, 4096] {
                    let (want, want_bytes) = per_rank_repartition(&sets, key_var, batch_rows);
                    let (got, got_bytes) = repartition_streamed(&stage, key_var, batch_rows);
                    assert_stage(&got, &want);
                    prop_assert_eq!(got_bytes, want_bytes);
                }
            }
        }
    }

    /// The rank-segmented stage against the per-rank path it replaced,
    /// kept here as the oracle over [`RankRows`]: scan, exchange
    /// (barriered and streamed), join (keyed and cross), the FILTER/APPLY
    /// gathers, rebalance and the result gather, at 1, 3, 16 and 2048
    /// ranks, with ids past `u32::MAX` and wide columns holding only small
    /// ids. Every comparison is `==` on each rank's rows, their order and
    /// column widths, plus each rank's byte size and the moved bytes.
    /// (`ci.sh` runs `cargo test -p ids-core --release -- stage_layout`.)
    mod stage_layout {
        use super::*;
        use ids_graph::stage::{offsets_from_counts, StagePart};
        use ids_graph::{Triple, TriplePattern};
        use ids_simrt::rng::SplitMix64;
        use ids_udf::{plan_count_based, plan_throughput_based};
        use proptest::prelude::*;
        use std::sync::Arc;

        const FULL: bool = !cfg!(debug_assertions);

        /// One rank's join, nested loops: each left row in order with every
        /// right row that agrees on the shared variables, in order.
        fn join_rows(left: &RankRows, right: &RankRows) -> RankRows {
            let shared: Vec<(usize, usize)> = (0..left.vars.len())
                .filter_map(|l| right.vars.iter().position(|v| *v == left.vars[l]).map(|r| (l, r)))
                .collect();
            let extra: Vec<usize> =
                (0..right.vars.len()).filter(|r| !shared.iter().any(|s| s.1 == *r)).collect();
            let vars: Arc<[String]> =
                left.vars.iter().chain(extra.iter().map(|&r| &right.vars[r])).cloned().collect();
            let mut out = RankRows::new(&vars);
            for l in &left.rows {
                for r in right.rows.iter().filter(|r| shared.iter().all(|&(a, b)| l[a] == r[b])) {
                    out.push_row(l.iter().copied().chain(extra.iter().map(|&k| r[k])).collect());
                }
            }
            out
        }

        /// The per-rank join: exchange both sides on the key
        /// `distributed_join` picks — the first shared variable a side is
        /// placed on, else the first shared one — or replicate the smaller
        /// side of a cross product, then join rank by rank. Exchanging a
        /// side already placed on the key leaves it as it is.
        fn per_rank_join(
            (left, left_placed): (&[RankRows], Option<&str>),
            (right, right_placed): (&[RankRows], Option<&str>),
        ) -> Vec<RankRows> {
            let ranks = left.len();
            let shared: Vec<&str> = left[0]
                .vars
                .iter()
                .filter(|v| right[0].vars.contains(v))
                .map(String::as_str)
                .collect();
            let key = [left_placed, right_placed]
                .into_iter()
                .flatten()
                .find(|p| shared.contains(p))
                .or(shared.first().copied());
            let (l, r) = if let Some(key) = key {
                (per_rank_repartition(left, key, 1).0, per_rank_repartition(right, key, 1).0)
            } else {
                let count = |s: &[RankRows]| s.iter().map(RankRows::len).sum::<usize>();
                let small_is_left = count(left) <= count(right);
                let small = if small_is_left { left } else { right };
                let mut merged = small[0].clone();
                small[1..].iter().for_each(|b| merged.append(b));
                let replicated = vec![merged; ranks];
                if small_is_left {
                    (replicated, right.to_vec())
                } else {
                    (left.to_vec(), replicated)
                }
            };
            l.iter().zip(&r).map(|(l, r)| join_rows(l, r)).collect()
        }

        /// The per-rank rebalance: surplus ranks `split_off` their tails,
        /// whose rows are `push_row`ed round-robin onto deficit ranks.
        fn per_rank_rebalance(
            mut sets: Vec<RankRows>,
            targets: &[u64],
        ) -> (Vec<RankRows>, Vec<u64>) {
            let mut surplus: Vec<Vec<u64>> = Vec::new();
            let mut moved = vec![0u64; sets.len()];
            for (r, set) in sets.iter_mut().enumerate() {
                if set.len() > targets[r] as usize {
                    let give = set.split_off(targets[r] as usize);
                    moved[r] = give.byte_size();
                    surplus.extend(give.rows);
                }
            }
            let deficits: Vec<usize> =
                (0..sets.len()).filter(|&r| sets[r].len() < targets[r] as usize).collect();
            if !deficits.is_empty() {
                let mut di = 0usize;
                'deal: for row in surplus {
                    let mut tried = 0;
                    while sets[deficits[di]].len() >= targets[deficits[di]] as usize {
                        di = (di + 1) % deficits.len();
                        tried += 1;
                        if tried > deficits.len() {
                            break 'deal;
                        }
                    }
                    sets[deficits[di]].push_row(row);
                    di = (di + 1) % deficits.len();
                }
            }
            (sets, moved)
        }

        /// One rank's scan, a triple at a time: the variables of `names`
        /// (subject, predicate, object; a repeated name is one column, bound
        /// where its positions agree), one row per agreeing triple.
        fn per_rank_scan(names: [Option<&str>; 3], triples: &[Triple]) -> RankRows {
            let mut vars: Vec<String> = Vec::new();
            let mut slot = [None; 3];
            for (pos, name) in names.iter().enumerate() {
                if let Some(n) = name {
                    let at = vars.iter().position(|v| v == n).unwrap_or(vars.len());
                    if at == vars.len() {
                        vars.push(n.to_string());
                    }
                    slot[pos] = Some(at);
                }
            }
            let mut out = RankRows::new(&vars.into());
            for t in triples {
                let mut row: Vec<Option<u64>> = vec![None; out.vars.len()];
                let agrees = [t.s, t.p, t.o].iter().zip(slot).all(|(id, at)| match at {
                    Some(at) => *row[at].get_or_insert(id.raw()) == id.raw(),
                    None => true,
                });
                if agrees {
                    out.push_row(row.into_iter().flatten().collect());
                }
            }
            out
        }

        /// Bind every rank's range into three parts, the ranks dealt to
        /// them in runs of uneven length as stealing workers take them,
        /// then assemble the stage — the engine's scan phase, unthreaded.
        fn scan_in_parts(schema: &gops::ScanSchema, ranges: &[&[Triple]]) -> StageBatch {
            let mut parts: Vec<StagePart> =
                (0..3).map(|_| StagePart::new(schema.vars().len())).collect();
            let spans: Vec<(usize, usize, usize)> = ranges
                .iter()
                .enumerate()
                .map(|(r, triples)| {
                    let p = (r / 5 + r / 11) % 3;
                    let (first, n) = gops::scan_into(schema, triples, &mut parts[p]);
                    (p, first, n)
                })
                .collect();
            StageBatch::assemble(schema.vars().clone(), parts, &spans, &IdBuffers::default())
                .unwrap()
        }

        fn ranks_axis() -> impl Strategy<Value = usize> {
            prop_oneof![Just(1usize), Just(3usize), Just(16usize), Just(2048usize)]
        }

        /// Rows per rank: fat at few ranks, a handful at 2048.
        fn max_rows(ranks: usize) -> usize {
            match (ranks, FULL) {
                (2048, _) => 3,
                (_, true) => 400,
                (_, false) => 40,
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(if FULL { 96 } else { 12 }))]

            #[test]
            fn stage_round_trips_and_gathers_like_the_per_rank_batches(
                seed in 0u64..1_000_000,
                ranks in ranks_axis(),
                flags in 0u8..4,
            ) {
                let mut rng = SplitMix64::new(seed, 0x57a6);
                let sets = random_ranks(
                    &["a", "b", "c"], ranks, max_rows(ranks), 50, (flags & 1 != 0, flags & 2 != 0), &mut rng,
                );
                let stage = stage_of(&sets);

                // FILTER: a selection per rank, gathered once.
                let kept: Vec<Vec<u32>> = sets
                    .iter()
                    .map(|b| (0..b.len() as u32).filter(|_| rng.next_below(2) == 0).collect())
                    .collect();
                let starts = stage.rank_offsets();
                let global: Vec<u32> = kept
                    .iter()
                    .enumerate()
                    .flat_map(|(r, k)| k.iter().map(move |&i| i + starts[r]))
                    .collect();
                let offsets = offsets_from_counts(kept.iter().map(Vec::len)).unwrap();
                let filtered = stage.gather(&global, offsets.clone());
                let want: Vec<RankRows> = sets
                    .iter()
                    .zip(&kept)
                    .map(|(b, k)| RankRows::of(&b.vars, k.iter().map(|&i| b.rows[i as usize].clone())))
                    .collect();
                assert_stage(&filtered, &want);

                // APPLY: the kept rows plus one bound id each, pushed row by row.
                let ids: Vec<u64> = global.iter().map(|&i| u64::from(i) * 7 + (1 << 33) * u64::from(i % 5 == 0)).collect();
                let schema = schema(&["a", "b", "c", "e"]);
                let applied = stage.gather_with_column(&global, offsets, schema.clone(), &ids);
                let mut next = ids.iter();
                let want: Vec<RankRows> = sets
                    .iter()
                    .zip(&kept)
                    .map(|(b, k)| {
                        let mut out = RankRows::new(&schema);
                        for &i in k {
                            let mut row = b.rows[i as usize].clone();
                            row.push(*next.next().unwrap());
                            out.push_row(row);
                        }
                        out
                    })
                    .collect();
                assert_stage(&applied, &want);

                // The result gather reads every rank's rows appended to
                // rank 0's.
                let mut merged = sets[0].clone();
                sets[1..].iter().for_each(|b| merged.append(b));
                let all: Vec<usize> = (0..3).collect();
                let every: Vec<u32> = (0..merged.len() as u32).collect();
                let names = merged.vars.to_vec();
                assert_eq!(stage.view().select_rows(names, &all, &every), merged.to_set());
                assert_eq!(stage.merged_byte_size(), merged.byte_size());
            }

            #[test]
            fn scan_stage_equals_the_per_rank_scans(
                seed in 0u64..1_000_000,
                ranks in ranks_axis(),
                shape in 0u8..5,
                big in any::<bool>(),
            ) {
                let mut rng = SplitMix64::new(seed, 0x5ca7);
                let term = |rng: &mut SplitMix64, domain: u64| {
                    let v = rng.next_below(domain);
                    TermId(if big && v.is_multiple_of(4) { v + (1 << 32) } else { v })
                };
                let shards: Vec<Vec<Triple>> = (0..ranks)
                    .map(|_| {
                        let n = rng.next_below(max_rows(ranks) as u64 + 1);
                        let mut triple =
                            || Triple::new(term(&mut rng, 6), term(&mut rng, 3), term(&mut rng, 6));
                        (0..n).map(|_| triple()).collect()
                    })
                    .collect();
                let ranges: Vec<&[Triple]> = shards.iter().map(Vec::as_slice).collect();
                let pat = TriplePattern::new(None, None, None);
                let (s, p, o) = [
                    (Some("s"), None, Some("o")),
                    (Some("x"), Some("p"), Some("x")),
                    (None, None, Some("o")),
                    (None, None, None),
                    (Some("s"), Some("p"), Some("o")),
                ][shape as usize];
                let schema = gops::scan_schema(&pat, s, p, o);
                let want: Vec<RankRows> = ranges.iter().map(|t| per_rank_scan([s, p, o], t)).collect();
                assert_stage(&scan_in_parts(&schema, &ranges), &want);
            }

            #[test]
            fn exchange_and_join_equal_the_per_rank_path(
                seed in 0u64..1_000_000,
                ranks in ranks_axis(),
                flags in 0u8..16,
                keys in 0usize..=2,
                domain in 1u64..=60,
                // Each side placed on none of its variables, or on one.
                placed in (0usize..=3, 0usize..=3),
            ) {
                let mut rng = SplitMix64::new(seed, 0xe7c4);
                let (lvars, rvars): (&[&str], &[&str]) = match keys {
                    0 => (&["a", "l"], &["b"]),
                    1 => (&["l", "k"], &["k", "r"]),
                    _ => (&["k", "l", "j"], &["j", "r", "k"]),
                };
                // A cross product's output is the product of its inputs.
                let rows = if keys == 0 { max_rows(ranks).min(12) } else { max_rows(ranks) };
                let mut side = |vars: &[&'static str], bits: u8, pick: usize| {
                    let sets = random_ranks(vars, ranks, rows, domain, (bits & 1 != 0, bits & 2 != 0), &mut rng);
                    match pick.checked_sub(1).and_then(|i| vars.get(i)) {
                        Some(&v) => (per_rank_repartition(&sets, v, 1).0, Some(v)),
                        None => (sets, None),
                    }
                };
                let (left, lp) = side(lvars, flags, placed.0);
                let (right, rp) = side(rvars, flags >> 2, placed.1);
                let (lstage, rstage) = (stage_of(&left), stage_of(&right));

                if keys > 0 {
                    let key = lvars.iter().find(|v| rvars.contains(v)).copied().unwrap();
                    let (want, _) = per_rank_repartition(&left, key, 1);
                    assert_stage(&repartition_by_vars(&lstage, key, &IdBuffers::default()).unwrap(), &want);
                    for batch_rows in [1usize, 3, 4096] {
                        let (want, want_bytes) = per_rank_repartition(&left, key, batch_rows);
                        let (got, got_bytes) = repartition_streamed(&lstage, key, batch_rows);
                        assert_stage(&got, &want);
                        assert_eq!(got_bytes, want_bytes);
                    }
                }

                let want = per_rank_join((&left, lp), (&right, rp));
                let mut cluster = Cluster::new(
                    ids_simrt::Topology::new(1, ranks as u32),
                    ids_simrt::NetworkModel::slingshot(),
                    1,
                );
                let (got, got_placed) = distributed_join(
                    &mut cluster,
                    (lstage, lp.map(str::to_string)),
                    (rstage, rp.map(str::to_string)),
                    &ExecOptions::default(),
                    &MetricsRegistry::new(),
                    &vec![0.0; ranks],
                    &mut ExchangeTally::default(),
                    &IdBuffers::default(),
                )
                .unwrap();
                assert_stage(&got, &want);
                // The output really is placed where the join says.
                if let Some(v) = &got_placed {
                    let c = got.var_index(v).unwrap();
                    for r in 0..ranks {
                        for row in RankRows::segment(&got, r).rows {
                            prop_assert_eq!(placement(TermId(row[c]), ranks), r);
                        }
                    }
                }
                // A key join is placed on a shared variable, a cross
                // product where its unbroadcast side was.
                if keys == 0 {
                    let count = |s: &[RankRows]| s.iter().map(RankRows::len).sum::<usize>();
                    let kept = if count(&left) <= count(&right) { rp } else { lp };
                    prop_assert_eq!(got_placed.as_deref(), kept);
                } else {
                    let v = got_placed.as_deref().unwrap();
                    prop_assert!(lvars.contains(&v) && rvars.contains(&v));
                }
            }

            #[test]
            fn rebalance_equals_split_off_and_push_row(
                seed in 0u64..1_000_000,
                ranks in ranks_axis(),
                flags in 0u8..4,
                plan in 0u8..3,
            ) {
                let mut rng = SplitMix64::new(seed, 0x4eba);
                let sets = random_ranks(
                    &["a", "b"], ranks, max_rows(ranks), 40, (flags & 1 != 0, flags & 2 != 0), &mut rng,
                );
                let total: u64 = sets.iter().map(|b| b.len() as u64).sum();
                // Count-based, throughput-based from random rates, or any
                // split of the rows — every one splits some ranks' rows.
                let targets: Vec<u64> = match plan {
                    0 => plan_count_based(total, ranks).targets,
                    1 => {
                        let rates: Vec<f64> =
                            (0..ranks).map(|_| 1.0 + rng.next_below(1000) as f64).collect();
                        plan_throughput_based(total, &rates).targets
                    }
                    _ => {
                        let mut t = vec![0u64; ranks];
                        for _ in 0..total {
                            t[rng.next_below(ranks as u64) as usize] += 1;
                        }
                        t
                    }
                };
                let stage = stage_of(&sets);
                let (want, want_moved) = per_rank_rebalance(sets, &targets);
                let (got, got_moved) = stage.rebalance(&targets).unwrap();
                assert_stage(&got, &want);
                assert_eq!(got_moved, want_moved);
            }
        }
    }
}
