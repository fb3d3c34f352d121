//! Per-rank UDF profiling (§2.4.1).
//!
//! Each rank maintains, for every UDF it has executed: (i) execution count,
//! (ii) total execution time, and (iii) how many times a query expression
//! was rejected due to that UDF. The profile is "continually updated
//! through the lifetime of a running IDS instance", and rank-local so the
//! planner can tailor decisions to each rank's hardware and data shard.
//!
//! An instance keeps them in one [`ProfileTable`], the only copy: metrics
//! export its merged row, and nothing reads profiles back out of metrics.

use ids_obs::MetricsRegistry;

/// Profiling record for one UDF on one rank.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct UdfProfile {
    /// Number of executions.
    pub calls: u64,
    /// Total execution time (virtual seconds).
    pub total_secs: f64,
    /// Executions that caused the enclosing expression to reject the
    /// solution.
    pub rejections: u64,
}

impl UdfProfile {
    /// Mean per-call cost; `None` until the UDF has run at least once.
    pub fn mean_cost(&self) -> Option<f64> {
        if self.calls == 0 {
            None
        } else {
            Some(self.total_secs / self.calls as f64)
        }
    }

    /// Fraction of calls that rejected their solution (selectivity proxy);
    /// `None` until the UDF has run.
    pub fn rejection_rate(&self) -> Option<f64> {
        if self.calls == 0 {
            None
        } else {
            Some(self.rejections as f64 / self.calls as f64)
        }
    }

    /// Merge another profile into this one (cross-rank aggregation).
    pub fn merge(&mut self, other: &UdfProfile) {
        self.calls += other.calls;
        self.total_secs += other.total_secs;
        self.rejections += other.rejections;
    }

    /// Whether no call or rejection has been recorded: such a cell reads
    /// as absent.
    fn is_empty(&self) -> bool {
        self.calls == 0 && self.rejections == 0
    }
}

/// Every rank's UDF profiles: a row per rank, a column per UDF, the cells
/// in one vector. The engine interns a stage's UDFs on the calling thread,
/// so no column depends on the schedule. An empty cell reads as absent.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ProfileTable {
    ranks: usize,
    /// Column → UDF name.
    names: Vec<String>,
    /// Rank-major cells: rank `r`'s row is `cells[r * w..(r + 1) * w]`,
    /// `w` the number of columns.
    cells: Vec<UdfProfile>,
}

impl ProfileTable {
    /// A table of `ranks` empty rows.
    pub fn new(ranks: usize) -> Self {
        Self { ranks, ..Self::default() }
    }

    /// Number of rows.
    pub fn ranks(&self) -> usize {
        self.ranks
    }

    /// Column → UDF name.
    pub fn columns(&self) -> &[String] {
        &self.names
    }

    /// `udf`'s column, if it has one: resolve a name once, then read every
    /// row's cell by index ([`ProfileRow::at`]).
    pub fn column(&self, udf: &str) -> Option<usize> {
        self.names.iter().position(|n| n == udf)
    }

    /// Give `udf` a column, an empty cell on every row, unless it has one.
    pub fn intern(&mut self, udf: &str) {
        let stage = self.stage_columns([udf]);
        self.widen(&stage);
    }

    /// Rank `rank`'s row; empty for a rank outside the table.
    pub fn row(&self, rank: usize) -> ProfileRow<'_> {
        let w = self.names.len();
        if rank >= self.ranks {
            return ProfileRow::default();
        }
        ProfileRow { names: &self.names, cells: &self.cells[rank * w..(rank + 1) * w] }
    }

    /// Every rank's row, in rank order.
    pub fn rows(&self) -> impl ExactSizeIterator<Item = ProfileRow<'_>> {
        (0..self.ranks).map(|r| self.row(r))
    }

    /// Rank `rank`'s row, to record into; empty for a rank outside the table.
    pub fn row_mut(&mut self, rank: usize) -> ProfileRowMut<'_> {
        let w = self.names.len();
        if rank >= self.ranks {
            return ProfileRowMut { names: &[], cells: &mut [] };
        }
        ProfileRowMut { names: &self.names, cells: &mut self.cells[rank * w..(rank + 1) * w] }
    }

    /// The columns a stage calling `udfs` records into: this table's, then
    /// one for each UDF without a column yet, in the order first met.
    pub fn stage_columns<'u>(&self, udfs: impl IntoIterator<Item = &'u str>) -> StageColumns {
        let mut names = self.names.clone();
        for udf in udfs {
            if !names.iter().any(|n| n == udf) {
                names.push(udf.to_string());
            }
        }
        StageColumns { names, committed: self.names.len() }
    }

    /// Take a succeeded stage's new columns, an empty cell on every row,
    /// ahead of writing its rows back with [`Self::set_row`].
    pub fn widen(&mut self, stage: &StageColumns) {
        debug_assert_eq!(stage.committed, self.names.len(), "columns of another table state");
        let (w, wide) = (self.names.len(), stage.names.len());
        if wide == w {
            return;
        }
        let mut cells = Vec::with_capacity(self.ranks * wide);
        for r in 0..self.ranks {
            cells.extend_from_slice(&self.cells[r * w..(r + 1) * w]);
            cells.resize((r + 1) * wide, UdfProfile::default());
        }
        self.cells = cells;
        self.names.extend_from_slice(&stage.names[w..]);
    }

    /// Overwrite rank `rank`'s row with `cells` (one per column); a rank
    /// outside the table, or a row of another width, is ignored.
    pub fn set_row(&mut self, rank: usize, cells: &[UdfProfile]) {
        let w = self.names.len();
        debug_assert_eq!(cells.len(), w, "a row of another width");
        if rank < self.ranks && cells.len() == w {
            self.cells[rank * w..(rank + 1) * w].copy_from_slice(cells);
        }
    }

    /// The instance-wide view: a one-row table whose cells sum every
    /// rank's, ranks in order (the float sums depend on the order).
    pub fn merged(&self) -> ProfileTable {
        let w = self.names.len();
        let mut cells = vec![UdfProfile::default(); w];
        for row in self.rows() {
            for (m, c) in cells.iter_mut().zip(row.cells) {
                m.merge(c);
            }
        }
        ProfileTable { ranks: 1, names: self.names.clone(), cells }
    }

    /// Export the merged row as gauges (cumulative, so `set` keeps
    /// re-exports idempotent): `ids_udf_profile_{calls,rejections}{udf}` and
    /// `ids_udf_profile_mean_cost_us{udf}` (whole virtual microseconds).
    pub fn export_metrics(&self, registry: &MetricsRegistry) {
        let merged = self.merged();
        for (name, prof) in merged.names.iter().zip(&merged.cells).filter(|(_, p)| !p.is_empty()) {
            let name = name.as_str();
            registry.gauge_with("ids_udf_profile_calls", "udf", name).set(prof.calls as i64);
            registry
                .gauge_with("ids_udf_profile_rejections", "udf", name)
                .set(prof.rejections as i64);
            let mean_us = prof.mean_cost().unwrap_or(0.0) * 1.0e6;
            registry
                .gauge_with("ids_udf_profile_mean_cost_us", "udf", name)
                .set(mean_us.round() as i64);
        }
    }
}

/// One row of a [`ProfileTable`]: a rank's profiles, or the merged ones.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProfileRow<'a> {
    names: &'a [String],
    cells: &'a [UdfProfile],
}

impl<'a> ProfileRow<'a> {
    /// Profile for a UDF, if it has any data.
    pub fn get(&self, udf: &str) -> Option<&'a UdfProfile> {
        self.at(self.column(udf))
    }

    fn column(&self, udf: &str) -> Option<usize> {
        self.names.iter().position(|n| n == udf)
    }

    /// The profile in `column` ([`ProfileTable::column`]), if it has any
    /// data.
    pub fn at(&self, column: Option<usize>) -> Option<&'a UdfProfile> {
        self.cells.get(column?).filter(|p| !p.is_empty())
    }

    /// Every column's name and cell, in column order, empty cells
    /// included.
    pub fn cells(&self) -> impl Iterator<Item = (&'a str, &'a UdfProfile)> {
        self.names.iter().map(String::as_str).zip(self.cells)
    }

    /// Names with profiling data, in column order.
    pub fn names(&self) -> Vec<&'a str> {
        self.names
            .iter()
            .zip(self.cells)
            .filter(|(_, p)| !p.is_empty())
            .map(|(n, _)| n.as_str())
            .collect()
    }

    /// Estimated per-call cost, falling back to `prior` for never-seen UDFs.
    pub fn estimated_cost(&self, udf: &str, prior: f64) -> f64 {
        self.estimated_cost_at(self.column(udf), prior)
    }

    /// Estimated rejection rate, falling back to `prior`.
    pub fn estimated_rejection(&self, udf: &str, prior: f64) -> f64 {
        self.estimated_rejection_at(self.column(udf), prior)
    }

    /// [`Self::estimated_cost`] of the UDF in `column`.
    pub fn estimated_cost_at(&self, column: Option<usize>, prior: f64) -> f64 {
        self.at(column).and_then(UdfProfile::mean_cost).unwrap_or(prior)
    }

    /// [`Self::estimated_rejection`] of the UDF in `column`.
    pub fn estimated_rejection_at(&self, column: Option<usize>, prior: f64) -> f64 {
        self.at(column).and_then(UdfProfile::rejection_rate).unwrap_or(prior)
    }
}

/// The columns one FILTER/APPLY stage records into
/// ([`ProfileTable::stage_columns`]). The stage leaves the table alone
/// while it runs: each rank with rows records into a copy of its own row
/// ([`Self::push_row`]), and the caller writes the new columns and the
/// rows back ([`ProfileTable::widen`], [`ProfileTable::set_row`]) only
/// when the stage succeeds, so a failed stage commits no cell and no
/// column. A copy starts from the committed cells, so its float sums run
/// in the same order as in the table.
#[derive(Debug)]
pub struct StageColumns {
    names: Vec<String>,
    /// How many of `names` the table already had.
    committed: usize,
}

impl StageColumns {
    /// Column → UDF name.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// Append rank `rank`'s committed row of `table` to `cells`, with an
    /// empty cell for each new column, and return the copy to record into.
    pub fn push_row<'a>(
        &'a self,
        table: &ProfileTable,
        rank: usize,
        cells: &'a mut Vec<UdfProfile>,
    ) -> ProfileRowMut<'a> {
        let committed = table.row(rank).cells;
        let start = cells.len();
        cells.extend_from_slice(&committed[..committed.len().min(self.committed)]);
        cells.resize(start + self.names.len(), UdfProfile::default());
        ProfileRowMut { names: &self.names, cells: &mut cells[start..] }
    }
}

/// One rank's row of a [`ProfileTable`], to record into.
#[derive(Debug)]
pub struct ProfileRowMut<'a> {
    names: &'a [String],
    cells: &'a mut [UdfProfile],
}

impl ProfileRowMut<'_> {
    /// Record one execution of `udf` costing `secs`.
    pub fn record_call(&mut self, udf: &str, secs: f64) {
        self.record_call_at(self.column(udf), udf, secs);
    }

    /// [`Self::record_call`] for a call that found `udf`'s column already.
    pub(crate) fn record_call_at(&mut self, column: Option<usize>, udf: &str, secs: f64) {
        debug_assert!(column.is_some(), "UDF `{udf}` has no profile column");
        if let Some(p) = column.and_then(|c| self.cells.get_mut(c)) {
            p.calls += 1;
            p.total_secs += secs;
        }
    }

    /// `udf`'s column, which is also its slot in a stage's
    /// [`StageMemo`](crate::memo::StageMemo).
    pub(crate) fn column(&self, udf: &str) -> Option<usize> {
        self.names.iter().position(|n| n == udf)
    }

    /// The number of columns.
    pub(crate) fn columns(&self) -> usize {
        self.names.len()
    }

    /// Record that `udf`'s outcome rejected the solution under evaluation.
    pub fn record_rejection(&mut self, udf: &str) {
        if let Some(p) = self.cell(udf) {
            p.rejections += 1;
        }
    }

    /// The same row, borrowed for a shorter time.
    pub fn reborrow(&mut self) -> ProfileRowMut<'_> {
        ProfileRowMut { names: self.names, cells: self.cells }
    }

    /// `udf`'s cell; workers record, so its column must already exist.
    fn cell(&mut self, udf: &str) -> Option<&mut UdfProfile> {
        let c = self.column(udf);
        debug_assert!(c.is_some(), "UDF `{udf}` has no profile column");
        self.cells.get_mut(c?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A one-rank table with columns for `udfs`.
    fn table(udfs: &[&str]) -> ProfileTable {
        let mut t = ProfileTable::new(1);
        for u in udfs {
            t.intern(u);
        }
        t
    }

    #[test]
    fn records_accumulate() {
        let mut t = table(&["sw"]);
        let mut p = t.row_mut(0);
        p.record_call("sw", 0.001);
        p.record_call("sw", 0.003);
        p.record_rejection("sw");
        let prof = t.row(0).get("sw").unwrap();
        assert_eq!(prof.calls, 2);
        assert!((prof.total_secs - 0.004).abs() < 1e-12);
        assert_eq!(prof.rejections, 1);
        assert!((prof.mean_cost().unwrap() - 0.002).abs() < 1e-12);
        assert!((prof.rejection_rate().unwrap() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn unseen_udf_uses_priors() {
        let t = table(&["interned_only"]);
        let p = t.row(0);
        assert_eq!(p.estimated_cost("never", 35.0), 35.0);
        assert_eq!(p.estimated_rejection("never", 0.5), 0.5);
        assert!(p.get("never").is_none());
        assert!(p.get("interned_only").is_none(), "an empty cell reads as absent");
        assert!(p.names().is_empty());
        assert!(ProfileRow::default().get("never").is_none());
    }

    #[test]
    fn profiles_replace_priors_once_data_exists() {
        let mut t = table(&["dtba"]);
        t.row_mut(0).record_call("dtba", 0.8);
        assert_eq!(t.row(0).estimated_cost("dtba", 35.0), 0.8);
    }

    #[test]
    fn empty_profile_has_no_estimates() {
        let prof = UdfProfile::default();
        assert_eq!(prof.mean_cost(), None);
        assert_eq!(prof.rejection_rate(), None);
    }

    #[test]
    fn merge_aggregates_across_ranks() {
        let mut t = ProfileTable::new(2);
        t.intern("sw");
        t.intern("pic50");
        let mut a = t.row_mut(0);
        a.record_call("sw", 0.001);
        a.record_rejection("sw");
        let mut b = t.row_mut(1);
        b.record_call("sw", 0.003);
        b.record_call("pic50", 0.00001);
        let merged = t.merged();
        let m = merged.row(0);
        assert_eq!(m.get("sw").unwrap().calls, 2);
        assert_eq!(m.get("pic50").unwrap().calls, 1);
        assert_eq!(m.names(), vec!["sw", "pic50"]);
        assert_eq!(t.row(0).names(), vec!["sw"], "rank 0 never ran pic50");
    }

    /// Deterministic per-(rank, UDF) data with float totals whose sum
    /// depends on the order it is taken in.
    fn filled(ranks: usize, udfs: &[&str]) -> ProfileTable {
        let mut t = ProfileTable::new(ranks);
        for u in udfs {
            t.intern(u);
        }
        for r in 0..ranks {
            let mut row = t.row_mut(r);
            for (k, u) in udfs.iter().enumerate() {
                for i in 0..(r * 7 + k * 3) % 5 {
                    row.record_call(u, 0.1 / (1 + r + i + k) as f64 + 1.0e-7 * r as f64);
                }
                if (r + k) % 3 == 0 {
                    row.record_rejection(u);
                }
            }
        }
        t
    }

    #[test]
    fn merged_matches_a_rank_order_fold_bit_for_bit() {
        let udfs = ["sw", "dtba", "pic50", "vina_docking"];
        let t = filled(67, &udfs);
        let merged = t.merged();
        for u in udfs {
            let mut fold = UdfProfile::default();
            for r in 0..t.ranks() {
                if let Some(p) = t.row(r).get(u) {
                    fold.merge(p);
                }
            }
            let m = merged.row(0).get(u).copied().unwrap_or_default();
            assert_eq!((m.calls, m.rejections), (fold.calls, fold.rejections), "{u}");
            assert_eq!(m.total_secs.to_bits(), fold.total_secs.to_bits(), "{u}");
        }
    }

    #[test]
    fn intern_order_does_not_change_a_name_s_cells() {
        // Two tables meet the same UDFs in different stage orders: their
        // columns differ, the cells each name reads do not.
        let mut a = ProfileTable::new(3);
        for u in ["sw", "dtba", "pic50"] {
            a.intern(u);
        }
        let mut b = ProfileTable::new(3);
        for u in ["pic50", "dtba", "sw"] {
            b.intern(u);
        }
        for t in [&mut a, &mut b] {
            for r in 0..3 {
                let mut row = t.row_mut(r);
                row.record_call("sw", 0.25 * r as f64);
                row.record_call("pic50", 1.0);
                row.record_rejection("dtba");
            }
        }
        for r in 0..3 {
            for u in ["sw", "dtba", "pic50", "absent"] {
                assert_eq!(a.row(r).get(u), b.row(r).get(u), "rank {r} {u}");
            }
        }
        // A column added after data exists keeps every earlier cell.
        a.intern("late");
        assert_eq!(a.row(2).get("sw").unwrap().total_secs, 0.5);
        assert!(a.row(2).get("late").is_none());
        let (reg_a, reg_b) = (MetricsRegistry::new(), MetricsRegistry::new());
        a.export_metrics(&reg_a);
        b.export_metrics(&reg_b);
        assert_eq!(reg_a.snapshot().gauges, reg_b.snapshot().gauges);
    }

    #[test]
    fn a_stage_s_row_copies_written_back_equal_recording_in_place() {
        let mut direct = filled(5, &["sw", "dtba"]);
        let mut staged = direct.clone();
        let stage = staged.stage_columns(["dtba", "pic50", "dtba"]);
        assert_eq!(stage.names(), ["sw", "dtba", "pic50"]);
        let mut cells = Vec::new();
        for r in [1, 3] {
            let mut row = stage.push_row(&staged, r, &mut cells);
            row.record_call("pic50", 0.3);
            row.record_call("sw", 0.1 * r as f64);
        }
        // Nothing reaches the table until the caller writes back.
        assert_eq!(staged, direct);
        direct.intern("pic50");
        for r in [1, 3] {
            let mut row = direct.row_mut(r);
            row.record_call("pic50", 0.3);
            row.record_call("sw", 0.1 * r as f64);
        }
        staged.widen(&stage);
        for (k, r) in [1, 3].into_iter().enumerate() {
            staged.set_row(r, &cells[k * 3..(k + 1) * 3]);
        }
        assert_eq!(staged, direct);
    }

    #[test]
    fn rows_out_of_range_are_empty() {
        let mut t = table(&["sw"]);
        assert!(t.row(1).names().is_empty());
        assert_eq!(t.rows().len(), 1);
        assert_eq!(ProfileTable::default().merged().row(0).names(), Vec::<&str>::new());
        t.row_mut(0).record_call("sw", 1.0);
        assert!(t.row_mut(1).cells.is_empty());
    }

    #[test]
    fn export_metrics_sets_idempotent_gauges() {
        let mut t = ProfileTable::new(2);
        t.intern("sw");
        t.intern("never_ran");
        t.row_mut(0).record_call("sw", 0.002);
        t.row_mut(1).record_call("sw", 0.004);
        t.row_mut(1).record_rejection("sw");
        let reg = MetricsRegistry::new();
        t.export_metrics(&reg);
        t.export_metrics(&reg); // re-export must not double-count
        let snap = reg.snapshot();
        let gauge = |name: &str, label: &str| {
            *snap
                .gauges
                .iter()
                .find(|(k, _)| k.name == name && k.label_value == label)
                .map(|(_, v)| v)
                .unwrap()
        };
        assert_eq!(gauge("ids_udf_profile_calls", "sw"), 2);
        assert_eq!(gauge("ids_udf_profile_rejections", "sw"), 1);
        assert_eq!(gauge("ids_udf_profile_mean_cost_us", "sw"), 3000);
        // Only the merged row is exported, and only names with data.
        assert_eq!(snap.gauges.len(), 3);
    }
}
