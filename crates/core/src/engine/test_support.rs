//! The per-rank reference layout the stage kernels are checked against,
//! shared by the engine's test modules.

use ids_graph::stage::{IdBuffers, StagePart};
use ids_graph::{SolutionSet, StageBatch, TermId};
use ids_simrt::rng::{fnv1a, hash_combine};
use std::sync::Arc;

pub(super) fn schema(vars: &[&str]) -> Arc<[String]> {
    vars.iter().map(|v| v.to_string()).collect()
}

/// One rank's solutions as the per-rank layout held them: its rows, and
/// per column whether the rank's column is eight bytes wide. A column
/// widens on its first id past `u32::MAX` and stays wide when rows are
/// split off. The reference every stage kernel is checked against.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(super) struct RankRows {
    pub(super) vars: Arc<[String]>,
    pub(super) rows: Vec<Vec<u64>>,
    pub(super) wide: Vec<bool>,
}

impl RankRows {
    pub(super) fn new(vars: &Arc<[String]>) -> Self {
        Self { vars: vars.clone(), rows: Vec::new(), wide: vec![false; vars.len()] }
    }

    /// `rows` pushed one by one.
    pub(super) fn of(vars: &Arc<[String]>, rows: impl IntoIterator<Item = Vec<u64>>) -> Self {
        let mut out = Self::new(vars);
        rows.into_iter().for_each(|row| out.push_row(row));
        out
    }

    /// Rank `r` of `stage`, at its segment widths.
    pub(super) fn segment(stage: &StageBatch, r: usize) -> Self {
        let s = stage.segment(r);
        let cols = 0..s.vars().len();
        Self {
            vars: stage.schema().clone(),
            rows: (0..s.len())
                .map(|i| cols.clone().map(|c| s.column(c).get(i)).collect())
                .collect(),
            wide: cols.map(|c| stage.segment_width(r, c) == 8).collect(),
        }
    }

    pub(super) fn len(&self) -> usize {
        self.rows.len()
    }

    pub(super) fn var_index(&self, var: &str) -> usize {
        self.vars.iter().position(|v| v == var).unwrap()
    }

    pub(super) fn push_row(&mut self, row: Vec<u64>) {
        assert_eq!(row.len(), self.vars.len(), "row width must match schema");
        for (w, &id) in self.wide.iter_mut().zip(&row) {
            *w |= id > u64::from(u32::MAX);
        }
        self.rows.push(row);
    }

    /// Append `other`'s rows: this rank's widths widen only on ids.
    pub(super) fn append(&mut self, other: &RankRows) {
        other.rows.iter().for_each(|row| self.push_row(row.clone()));
    }

    /// Split off rows `[at, len)`; both halves keep the widths.
    pub(super) fn split_off(&mut self, at: usize) -> Self {
        Self { vars: self.vars.clone(), rows: self.rows.split_off(at), wide: self.wide.clone() }
    }

    /// The serialized size: `u16` var count; per var a `u16` length +
    /// name bytes and a tag byte; `u64` row count; `rows × width` bytes
    /// per column.
    pub(super) fn byte_size(&self) -> u64 {
        let names: u64 = self.vars.iter().map(|v| 2 + v.len() as u64 + 1).sum();
        let cells: u64 = self.wide.iter().map(|&w| if w { 8 } else { 4 }).sum();
        2 + 8 + names + self.len() as u64 * cells
    }

    /// The rows as a boundary set.
    pub(super) fn to_set(&self) -> SolutionSet {
        let rows = self.rows.iter().map(|r| r.iter().copied().map(TermId).collect()).collect();
        SolutionSet::new(self.vars.to_vec(), rows)
    }
}

/// `stage` holds `want[r]` on every rank r, at its widths and sizes.
pub(super) fn assert_stage(stage: &StageBatch, want: &[RankRows]) {
    assert_eq!(stage.ranks(), want.len());
    for (r, w) in want.iter().enumerate() {
        assert_eq!(&RankRows::segment(stage, r), w, "rank {r}");
        assert_eq!(stage.segment_byte_size(r), w.byte_size(), "rank {r}");
    }
    assert_eq!(stage.byte_size(), want.iter().map(RankRows::byte_size).sum::<u64>());
}

/// The stage whose rank r holds `ranks[r]` at its widths. The rows fill
/// one part; a rank wider than its rows gets one more row, of wide ids
/// in its wide columns, which a rebalance to the ranks' own row counts
/// drops again (a kept segment keeps its widths).
pub(super) fn stage_of(ranks: &[RankRows]) -> StageBatch {
    let mut part = StagePart::new(ranks[0].vars.len());
    let spans: Vec<(usize, usize, usize)> = ranks
        .iter()
        .map(|t| {
            let mut rows = t.rows.clone();
            if RankRows::of(&t.vars, t.rows.clone()).wide != t.wide {
                rows.push(t.wide.iter().map(|&w| if w { u64::MAX - 1 } else { 0 }).collect());
            }
            let (first, n) = part.push_rank(&rows).unwrap();
            (0, first, n)
        })
        .collect();
    let stage =
        StageBatch::assemble(ranks[0].vars.clone(), vec![part], &spans, &IdBuffers::default())
            .unwrap();
    let targets: Vec<u64> = ranks.iter().map(|t| t.len() as u64).collect();
    let (stage, _) = stage.rebalance(&targets).unwrap();
    assert_stage(&stage, ranks);
    stage
}

/// The per-rank exchange on key `var`: each source's rows cut by
/// destination and appended, sources in rank order; with `batch_rows`,
/// the wire bytes of its sub-batches per (source, destination).
pub(super) fn per_rank_repartition(
    sets: &[RankRows],
    var: &str,
    batch_rows: usize,
) -> (Vec<RankRows>, Vec<u64>) {
    let ranks = sets.len();
    let k = sets[0].var_index(var);
    let mut out = vec![RankRows::new(&sets[0].vars); ranks];
    let mut bytes = vec![0u64; ranks * ranks];
    for (src, set) in sets.iter().enumerate() {
        let mut by_dst: Vec<Vec<Vec<u64>>> = vec![Vec::new(); ranks];
        for row in &set.rows {
            let h = hash_combine(0xA17C_E55E, fnv1a(&row[k].to_le_bytes()));
            by_dst[(h % ranks as u64) as usize].push(row.clone());
        }
        for (dst, rows) in by_dst.into_iter().enumerate() {
            bytes[src * ranks + dst] = rows
                .chunks(batch_rows)
                .map(|sub| RankRows::of(&set.vars, sub.to_vec()).byte_size())
                .sum();
            rows.into_iter().for_each(|row| out[dst].push_row(row));
        }
    }
    (out, bytes)
}

/// One rank's rows per rank over `vars`: `0..=max_rows` rows each (a
/// quarter of ranks empty), ids from `0..domain`, about one in six past
/// `u32::MAX` with `big`; with `sticky`, wide columns holding only small
/// ids on every rank (a split-off wide row).
pub(super) fn random_ranks(
    vars: &[&str],
    ranks: usize,
    max_rows: usize,
    domain: u64,
    (big, sticky): (bool, bool),
    rng: &mut ids_simrt::rng::SplitMix64,
) -> Vec<RankRows> {
    let schema = schema(vars);
    (0..ranks)
        .map(|_| {
            let mut b = RankRows::new(&schema);
            if sticky {
                b.push_row(vec![u64::MAX - 1; vars.len()]);
            }
            let rows = if rng.next_below(4) == 0 {
                0
            } else {
                rng.next_below(max_rows as u64 + 1) as usize
            };
            for _ in 0..rows {
                let row: Vec<u64> = vars
                    .iter()
                    .map(|_| {
                        let v = rng.next_below(domain);
                        if big && rng.next_below(6) == 0 {
                            v + (1 << 32)
                        } else {
                            v
                        }
                    })
                    .collect();
                b.push_row(row);
            }
            if sticky {
                b = b.split_off(1);
            }
            b
        })
        .collect()
}
