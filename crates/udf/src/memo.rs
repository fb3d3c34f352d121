//! Prepared UDF arguments, kept for the life of an instance.
//!
//! A UDF registered with [`UdfRegistry::register_prepared`] splits into a
//! `prepare` for each of its leading argument positions, pure in that
//! argument's value, and a `call` that runs per row on their forms and
//! the remaining values. FILTER/APPLY rows are protein × compound pairs,
//! and exploration repeats and overlaps its queries, so the arguments
//! (`?seq`, `?smiles`, `?protein`) repeat across rows, ranks, stages and
//! queries. An [`ArgMemo`] lives as long as its instance: it runs a
//! position's `prepare` once per distinct dictionary id bound there, and
//! every row still makes its own `call` — its own charge, profile entry,
//! retry and error.
//!
//! The memo is keyed by (prepared UDF, argument position, id): the UDF
//! numbered in order of first use, `id` the raw dictionary id
//! [`Bindings::key`] reports. Positions are keyed apart, so one id bound
//! at two positions of a call has each position's own form. A position
//! that is not a bound variable (a constant, a nested call, an absent
//! argument) has no id, and its form is made for that call only. No entry
//! is ever invalidated, because none can go stale: `prepare` is pure in
//! its argument's value, a prepared UDF is static so it is never
//! replaced, and a term id names one term for the dictionary's life
//! (ingest only appends). So any worker of any stage may fill an entry
//! and every later row may read it. The memo holds at most one entry per
//! prepared position per term id — the dictionary already holds each
//! term's text.
//!
//! A stage resolves its UDFs once, before its workers start
//! ([`ArgMemo::stage`]): each of its profile columns to its prepared
//! UDF's slot, or to none. A row then finds its call's slot by the column
//! it records its profile in, and on a hit takes every position's form in
//! one read of the memo, without decoding a term or entering the
//! registry.
//!
//! An entry is whatever `prepare` returned for the value:
//! `sw_similarity`'s is the similarity and the charge its `call` reports
//! for every row, `dtba`'s a protein branch at position 0 and a ligand
//! branch at position 1, which each row's `call` joins in the dense head,
//! `pic50`'s a hash of each input. An entry may also hold a cell
//! (`OnceLock`) that the first `call` needing it fills, when the work
//! should not run for rows that do not need it — `vina_docking` docks only
//! on a cache miss, so a hit must not dock. The cell's content must be as
//! pure in the value as `prepare` is (no rank, no cache, no other
//! argument): then it is the same whichever row fills it. A panicking
//! `prepare` or fill leaves no entry or an empty cell, so a retried row
//! prepares or fills it again. What stays per row is the rest: the call
//! itself, so a cache protocol, a rank-dependent charge and the profile
//! entry are never memoised.
//!
//! [`Bindings::key`]: crate::expr::Bindings::key

use crate::registry::{Form, PreparedInput, PreparedUdf, UdfOutput, UdfRegistry};
use crate::value::UdfValue;
use ids_obs::{Counter, MetricsRegistry};
use ids_simrt::sync::{lock, read, write};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::{Arc, OnceLock};
use std::sync::{Mutex, RwLock};

/// One prepared UDF the memo keeps forms for.
pub(crate) struct Slot {
    index: u32,
    udf: String,
    body: Arc<dyn PreparedUdf>,
    /// `ids_udf_prepares_total{udf}`: the entries inserted, one per
    /// position and id; made by the first insert.
    inserts: OnceLock<Counter>,
}

impl Slot {
    /// How many leading argument positions are prepared.
    pub(crate) fn positions(&self) -> usize {
        self.body.positions()
    }

    /// The per-row `call`.
    pub(crate) fn call(&self, inputs: &[PreparedInput<'_>], rest: &[UdfValue]) -> UdfOutput {
        self.body.call(inputs, rest)
    }
}

/// (slot, argument position, dictionary id).
type Key = (u32, u32, u64);

/// Hashes a key's integers with a multiply each (FxHash's mix) and a
/// final rotate that brings the well-mixed high bits down to the bucket
/// index: the keys are dictionary ids, not adversarial input.
#[derive(Default)]
struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|&b| self.write_u64(b.into()));
    }

    fn write_u32(&mut self, n: u32) {
        self.write_u64(n.into());
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }

    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

/// Prepared arguments, shared by every stage and worker of one instance.
/// `ids_udf_prepares_total{udf}` in the instance's metrics counts its
/// first inserts, every position's together.
pub struct ArgMemo {
    metrics: MetricsRegistry,
    /// Prepared UDFs in order of first use; a slot's number is its index.
    slots: Mutex<Vec<Arc<Slot>>>,
    prepared: RwLock<HashMap<Key, Form, BuildHasherDefault<KeyHasher>>>,
}

/// The memo as one stage's workers see it: the stage's profile columns,
/// each resolved once to its prepared UDF's slot, or to none.
pub struct StageMemo<'m> {
    memo: &'m ArgMemo,
    sites: Vec<Option<Arc<Slot>>>,
}

impl StageMemo<'_> {
    /// The number of profile columns the stage was resolved for.
    pub(crate) fn columns(&self) -> usize {
        self.sites.len()
    }

    /// The memo and the slot of the UDF in profile column `column`, if it
    /// is a prepared UDF.
    pub(crate) fn site(&self, column: Option<usize>) -> Option<(&ArgMemo, &Slot)> {
        let slot = self.sites.get(column?)?.as_deref()?;
        Some((self.memo, slot))
    }
}

impl ArgMemo {
    /// An empty memo counting its inserts into `metrics`.
    pub fn new(metrics: &MetricsRegistry) -> Self {
        Self { metrics: metrics.clone(), slots: Mutex::default(), prepared: RwLock::default() }
    }

    /// Resolve a stage's UDFs once, on the calling thread before its
    /// workers start: each of its profile `columns` (a table's
    /// [`ProfileTable::columns`] or a stage's [`StageColumns::names`]) to
    /// its slot when `registry` holds it as a prepared UDF. Profile rows
    /// with these columns then evaluate through the result
    /// ([`EvalCtx::with_memo`]).
    ///
    /// [`EvalCtx::with_memo`]: crate::expr::EvalCtx::with_memo
    /// [`ProfileTable::columns`]: crate::profile::ProfileTable::columns
    /// [`StageColumns::names`]: crate::profile::StageColumns::names
    pub fn stage(&self, registry: &UdfRegistry, columns: &[String]) -> StageMemo<'_> {
        let mut slots = lock(&self.slots);
        let sites = columns
            .iter()
            .map(|udf| {
                let body = registry.prepared(udf)?;
                if let Some(slot) = slots.iter().find(|s| s.udf == *udf) {
                    return Some(Arc::clone(slot));
                }
                let slot = Arc::new(Slot {
                    index: slots.len() as u32,
                    udf: udf.clone(),
                    body,
                    inserts: OnceLock::new(),
                });
                slots.push(Arc::clone(&slot));
                Some(slot)
            })
            .collect();
        StageMemo { memo: self, sites }
    }

    /// Fill `forms[pos]` with the kept form of each position `keys` holds
    /// an id for, in one read.
    pub(crate) fn lookup(&self, slot: &Slot, keys: &[Option<u64>], forms: &mut [Option<Form>]) {
        if keys.iter().all(Option::is_none) {
            return;
        }
        let prepared = read(&self.prepared);
        for (pos, (key, form)) in keys.iter().zip(forms).enumerate() {
            if let Some(id) = *key {
                *form = prepared.get(&(slot.index, pos as u32, id)).cloned();
            }
        }
    }

    /// Run `slot`'s `prepare` at `pos` on `value` — the value of id `id` —
    /// with no lock held, and keep the result. Two workers racing on one
    /// key both compute the same form; the first insert wins and is the
    /// one counted. A panicking `prepare` leaves no entry, so a retried
    /// row prepares again.
    pub(crate) fn keep(&self, slot: &Slot, pos: usize, id: u64, value: &UdfValue) -> Option<Form> {
        let fresh = slot.body.prepare(pos, value)?;
        let mut prepared = write(&self.prepared);
        Some(match prepared.entry((slot.index, pos as u32, id)) {
            Entry::Occupied(e) => Arc::clone(e.get()),
            Entry::Vacant(e) => {
                let inserts = slot.inserts.get_or_init(|| {
                    self.metrics.counter_with("ids_udf_prepares_total", "udf", &slot.udf)
                });
                inserts.inc();
                Arc::clone(e.insert(fresh))
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{Bindings, EvalCtx, Expr};
    use crate::profile::ProfileTable;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// One row: `?x` bound to id `id`, whose value is `id` as an `I64`.
    struct Row {
        id: u64,
    }

    impl Bindings for Row {
        fn get(&self, var: &str) -> Option<UdfValue> {
            (var == "x").then_some(UdfValue::I64(self.id as i64))
        }

        fn key(&self, var: &str) -> Option<u64> {
            (var == "x").then_some(self.id)
        }
    }

    fn eval(e: &Expr, reg: &UdfRegistry, memo: &ArgMemo, id: u64) -> UdfOutput {
        let mut profiles = ProfileTable::new(1);
        e.for_each_udf(&mut |u| profiles.intern(u));
        let stage = memo.stage(reg, profiles.columns());
        let mut cx = EvalCtx::new(reg, profiles.row_mut(0)).with_memo(&stage);
        let value = e.eval(&Row { id }, &mut cx).unwrap();
        UdfOutput::new(value, cx.charged_secs)
    }

    fn prepares(metrics: &MetricsRegistry, udf: &str) -> u64 {
        metrics.snapshot().counter("ids_udf_prepares_total", udf)
    }

    fn entries(memo: &ArgMemo) -> usize {
        read(&memo.prepared).len()
    }

    /// `square(?x)`: prepares x², counting each run of `prepare`; every
    /// call charges 1 ms.
    fn squares() -> (UdfRegistry, Arc<AtomicU64>) {
        let reg = UdfRegistry::new();
        let runs = Arc::new(AtomicU64::new(0));
        let r = Arc::clone(&runs);
        reg.register_prepared(
            "square",
            (move |v: &UdfValue| {
                r.fetch_add(1, Ordering::SeqCst);
                v.as_f64().unwrap_or(0.0).powi(2)
            },),
            |sq: &f64, _: &[UdfValue]| UdfOutput::new(UdfValue::F64(*sq), 1.0e-3),
        )
        .unwrap();
        (reg, runs)
    }

    /// `pair(a, b)`: prepares `a` as `10 a` and `b` as `b + 0.5`, counting
    /// each position's runs; the call returns `(10 a) * 100 + (b + 0.5)`
    /// plus its third argument, charging 1 ms.
    fn pairs() -> (UdfRegistry, Arc<[AtomicU64; 2]>) {
        let reg = UdfRegistry::new();
        let runs = Arc::new([AtomicU64::new(0), AtomicU64::new(0)]);
        let (r0, r1) = (Arc::clone(&runs), Arc::clone(&runs));
        reg.register_prepared(
            "pair",
            (
                move |v: &UdfValue| {
                    r0[0].fetch_add(1, Ordering::SeqCst);
                    10.0 * v.as_f64().unwrap_or(0.0)
                },
                move |v: &UdfValue| {
                    r1[1].fetch_add(1, Ordering::SeqCst);
                    v.as_f64().unwrap_or(0.0) + 0.5
                },
            ),
            |(a, b): (&f64, &f64), rest: &[UdfValue]| {
                let extra = rest.first().and_then(UdfValue::as_f64).unwrap_or(0.0);
                UdfOutput::new(UdfValue::F64(a * 100.0 + b + extra), 1.0e-3)
            },
        )
        .unwrap();
        (reg, runs)
    }

    fn counts(runs: &[AtomicU64; 2]) -> [u64; 2] {
        [runs[0].load(Ordering::SeqCst), runs[1].load(Ordering::SeqCst)]
    }

    /// Ten stages of 40 rows over ids `0..10` on `threads` threads, the
    /// threads of a stage started together; returns the virtual seconds
    /// charged.
    fn stages(threads: usize, e: &Expr, reg: &UdfRegistry, memo: &ArgMemo) -> f64 {
        (0..10)
            .map(|_| {
                let start = std::sync::Barrier::new(threads);
                std::thread::scope(|s| {
                    let workers: Vec<_> = (0..threads)
                        .map(|_| {
                            s.spawn(|| {
                                start.wait();
                                (0..40 / threads as u64)
                                    .map(|i| {
                                        let out = eval(e, reg, memo, i % 10);
                                        let sq = ((i % 10) as f64).powi(2);
                                        assert_eq!(out.value, UdfValue::F64(sq));
                                        out.virtual_secs
                                    })
                                    .sum::<f64>()
                            })
                        })
                        .collect();
                    workers.into_iter().map(|w| w.join().unwrap()).sum::<f64>()
                })
            })
            .sum()
    }

    #[test]
    fn prepare_runs_once_per_id_across_stages_and_threads() {
        let e = Expr::udf("square", vec![Expr::var("x")]);
        for threads in [1, 2] {
            let (reg, runs) = squares();
            let metrics = MetricsRegistry::new();
            let memo = ArgMemo::new(&metrics);
            let charged = stages(threads, &e, &reg, &memo);
            assert!((charged - 400.0e-3).abs() < 1e-9, "every row charges its call: {charged}");
            // Only the first stage can race on an id, and one result is
            // kept; the other nine stages all hit.
            let runs = runs.load(Ordering::SeqCst);
            assert!((10..=10 * threads as u64).contains(&runs), "{threads} threads: {runs}");
            assert_eq!(prepares(&metrics, "square"), 10, "first inserts, on {threads} threads");
        }

        // Unserialized, `prepare` runs exactly once per id, however many
        // stages evaluate it.
        let (reg, runs) = squares();
        let memo = ArgMemo::new(&MetricsRegistry::new());
        stages(1, &e, &reg, &memo);
        assert_eq!(runs.load(Ordering::SeqCst), 10);
    }

    #[test]
    fn a_panicking_prepare_leaves_no_entry() {
        let reg = UdfRegistry::new();
        let runs = Arc::new(AtomicU64::new(0));
        let r = Arc::clone(&runs);
        reg.register_prepared(
            "flaky",
            (move |v: &UdfValue| {
                if r.fetch_add(1, Ordering::SeqCst) == 0 {
                    panic!("first prepare fails");
                }
                v.as_f64().unwrap_or(0.0)
            },),
            |x: &f64, _: &[UdfValue]| UdfOutput::new(UdfValue::F64(*x + 1.0), 0.0),
        )
        .unwrap();
        let e = Expr::udf("flaky", vec![Expr::var("x")]);
        let metrics = MetricsRegistry::new();
        let memo = ArgMemo::new(&metrics);
        let first = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            eval(&e, &reg, &memo, 7);
        }));
        assert!(first.is_err());
        assert!(metrics.snapshot().is_empty(), "no entry, and no series");
        // The retry prepares again and succeeds; later rows, in this stage
        // or any other, hit.
        for _ in 0..3 {
            assert_eq!(eval(&e, &reg, &memo, 7).value, UdfValue::F64(8.0));
        }
        assert_eq!(runs.load(Ordering::SeqCst), 2);
        assert_eq!(prepares(&metrics, "flaky"), 1);
    }

    #[test]
    fn a_panicking_prepare_at_position_one_leaves_no_entry_there() {
        // `late(?x, ?x)`: position 0 prepares `x`, position 1 panics on
        // its first run.
        let reg = UdfRegistry::new();
        let runs = Arc::new([AtomicU64::new(0), AtomicU64::new(0)]);
        let (r0, r1) = (Arc::clone(&runs), Arc::clone(&runs));
        reg.register_prepared(
            "late",
            (
                move |v: &UdfValue| {
                    r0[0].fetch_add(1, Ordering::SeqCst);
                    v.as_f64().unwrap_or(0.0)
                },
                move |v: &UdfValue| {
                    if r1[1].fetch_add(1, Ordering::SeqCst) == 0 {
                        panic!("first prepare at position 1 fails");
                    }
                    2.0 * v.as_f64().unwrap_or(0.0)
                },
            ),
            |(a, b): (&f64, &f64), _: &[UdfValue]| UdfOutput::new(UdfValue::F64(a + b), 0.0),
        )
        .unwrap();
        let e = Expr::udf("late", vec![Expr::var("x"), Expr::var("x")]);
        let metrics = MetricsRegistry::new();
        let memo = ArgMemo::new(&metrics);
        let first = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            eval(&e, &reg, &memo, 4);
        }));
        assert!(first.is_err());
        // Position 0 prepared first and kept its form; position 1 left
        // nothing.
        assert_eq!(entries(&memo), 1);
        assert_eq!(prepares(&metrics, "late"), 1);
        // The retried row prepares position 1 again, and only it; later
        // rows hit both.
        for _ in 0..3 {
            assert_eq!(eval(&e, &reg, &memo, 4).value, UdfValue::F64(12.0));
        }
        assert_eq!(counts(&runs), [1, 2]);
        assert_eq!(entries(&memo), 2);
        assert_eq!(prepares(&metrics, "late"), 2);
    }

    #[test]
    fn one_id_at_two_positions_gets_each_position_s_own_form() {
        let (reg, runs) = pairs();
        let metrics = MetricsRegistry::new();
        let memo = ArgMemo::new(&metrics);
        let e = Expr::udf("pair", vec![Expr::var("x"), Expr::var("x")]);
        for id in [3, 4, 3, 4, 3] {
            let out = eval(&e, &reg, &memo, id);
            let x = id as f64;
            assert_eq!(out, UdfOutput::new(UdfValue::F64(10.0 * x * 100.0 + x + 0.5), 1.0e-3));
            assert_eq!(
                out,
                reg.call("pair", &[UdfValue::I64(id as i64), UdfValue::I64(id as i64)]).unwrap()
            );
        }
        // Two ids at two positions: four entries, each position prepared
        // once per id by the memo (and once per direct call).
        assert_eq!(entries(&memo), 4);
        assert_eq!(prepares(&metrics, "pair"), 4);
        assert_eq!(counts(&runs), [2 + 5, 2 + 5]);
    }

    #[test]
    fn a_constant_at_a_prepared_position_is_prepared_per_call_and_never_kept() {
        let (reg, runs) = pairs();
        let metrics = MetricsRegistry::new();
        let memo = ArgMemo::new(&metrics);
        let c = |v: f64| Expr::Const(UdfValue::F64(v));
        // Position 0 a constant, position 1 the variable, and a third,
        // unprepared argument.
        let e = Expr::udf("pair", vec![c(2.0), Expr::var("x"), c(0.25)]);
        for _ in 0..3 {
            let out = eval(&e, &reg, &memo, 5);
            assert_eq!(out, UdfOutput::new(UdfValue::F64(2000.0 + 5.5 + 0.25), 1.0e-3));
            let args = [UdfValue::F64(2.0), UdfValue::I64(5), UdfValue::F64(0.25)];
            assert_eq!(out, reg.call("pair", &args).unwrap());
        }
        assert_eq!(counts(&runs), [3 + 3, 1 + 3], "the constant on every call, ?x once");
        assert_eq!(entries(&memo), 1, "only ?x's form is kept");
        // An absent second argument is prepared from `Null`, per call.
        let e = Expr::udf("pair", vec![Expr::var("x")]);
        for _ in 0..2 {
            assert_eq!(eval(&e, &reg, &memo, 5).value, UdfValue::F64(5000.0 + 0.5));
        }
        assert_eq!(counts(&runs), [6 + 1, 4 + 2]);
        assert_eq!(entries(&memo), 2);
        assert_eq!(prepares(&metrics, "pair"), 2);
    }

    #[test]
    fn an_unbound_variable_fails_in_argument_order() {
        let (reg, _) = pairs();
        let memo = ArgMemo::new(&MetricsRegistry::new());
        for args in [
            vec![Expr::var("a"), Expr::var("b")],
            vec![Expr::var("x"), Expr::var("a"), Expr::var("b")],
            vec![Expr::var("x"), Expr::var("x"), Expr::var("a")],
            vec![Expr::var("a"), Expr::var("x"), Expr::var("b")],
        ] {
            let e = Expr::udf("pair", args);
            let mut profiles = ProfileTable::new(1);
            profiles.intern("pair");
            let stage = memo.stage(&reg, profiles.columns());
            let mut memoised = EvalCtx::new(&reg, profiles.row_mut(0)).with_memo(&stage);
            let got = e.eval(&Row { id: 1 }, &mut memoised).unwrap_err();
            let mut scalar = ProfileTable::new(1);
            scalar.intern("pair");
            let mut direct = EvalCtx::new(&reg, scalar.row_mut(0));
            assert_eq!(got, e.eval(&Row { id: 1 }, &mut direct).unwrap_err(), "{e:?}");
            assert_eq!(got, crate::EvalError::UnboundVariable("a".into()), "{e:?}");
        }
    }

    #[test]
    fn a_lazy_cell_fills_once_and_a_panicking_fill_leaves_it_empty() {
        // `double(?x)` prepares an empty cell; a call with a positive
        // second argument fills it with 2x (the first fill panics), and
        // one with a zero second argument skips it, as a cache hit skips
        // docking.
        let reg = UdfRegistry::new();
        let fills = Arc::new(AtomicU64::new(0));
        let f = Arc::clone(&fills);
        reg.register_prepared(
            "double",
            (|v: &UdfValue| (v.as_f64().unwrap_or(0.0), OnceLock::new()),),
            move |(x, cell): &(f64, OnceLock<f64>), rest: &[UdfValue]| {
                if rest.first().and_then(UdfValue::as_f64) == Some(0.0) {
                    return UdfOutput::new(UdfValue::Null, 0.0);
                }
                let doubled = cell.get_or_init(|| {
                    if f.fetch_add(1, Ordering::SeqCst) == 0 {
                        panic!("first fill fails");
                    }
                    2.0 * x
                });
                UdfOutput::new(UdfValue::F64(*doubled), 1.0e-3)
            },
        )
        .unwrap();
        let call =
            |need: i64| Expr::udf("double", vec![Expr::var("x"), Expr::Const(UdfValue::I64(need))]);
        let memo = ArgMemo::new(&MetricsRegistry::new());
        assert_eq!(eval(&call(0), &reg, &memo, 4).value, UdfValue::Null);
        assert_eq!(fills.load(Ordering::SeqCst), 0, "a row that skips the cell fills nothing");
        let first = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            eval(&call(1), &reg, &memo, 4);
        }));
        assert!(first.is_err());
        for _ in 0..3 {
            assert_eq!(eval(&call(1), &reg, &memo, 4).value, UdfValue::F64(8.0));
        }
        assert_eq!(fills.load(Ordering::SeqCst), 2, "the retry fills the cell, later rows read it");
    }

    #[test]
    fn static_udfs_are_never_memoised() {
        // A static UDF whose charge depends on something other than its
        // arguments (here a counter standing in for the rank) is charged
        // per row, whatever the memo holds.
        let reg = UdfRegistry::new();
        let rank = Arc::new(AtomicU64::new(0));
        let r = Arc::clone(&rank);
        reg.register_static(
            "slow_check",
            Arc::new(move |_: &[UdfValue]| {
                let secs = 1.0e-3 * (1 + r.load(Ordering::SeqCst)) as f64;
                UdfOutput::new(UdfValue::Bool(true), secs)
            }),
        )
        .unwrap();
        let e = Expr::udf("slow_check", vec![Expr::var("x")]);
        let metrics = MetricsRegistry::new();
        let memo = ArgMemo::new(&metrics);
        let mut charged = Vec::new();
        for r in 0..4 {
            rank.store(r, Ordering::SeqCst);
            charged.push(eval(&e, &reg, &memo, 5).virtual_secs);
        }
        assert_eq!(charged, vec![1.0e-3, 2.0e-3, 3.0e-3, 4.0e-3]);
        assert!(lock(&memo.slots).is_empty(), "no slot for a static UDF");
        assert!(metrics.snapshot().is_empty());
    }

    #[test]
    fn memo_and_direct_call_agree() {
        let (reg, runs) = squares();
        let e = Expr::udf("square", vec![Expr::var("x")]);
        let memo = ArgMemo::new(&MetricsRegistry::new());
        let direct = reg.call("square", &[UdfValue::I64(3)]).unwrap();
        assert_eq!(eval(&e, &reg, &memo, 3), direct);
        assert_eq!(eval(&e, &reg, &memo, 3), direct);
        assert_eq!(runs.load(Ordering::SeqCst), 2, "one direct, one memoised");
    }

    #[test]
    fn keys_spread_over_buckets() {
        // Ids that differ only above the dictionary's shard bits still
        // spread over a 4 096-bucket table: a random function fills
        // ≈ 2 590 buckets with 4 096 keys, one that keeps the low bits 64.
        let bucket = |id: u64| {
            let mut h = KeyHasher::default();
            std::hash::Hash::hash(&(0u32, 1u32, id), &mut h);
            h.finish() & 4095
        };
        let buckets: std::collections::HashSet<u64> = (0..4096).map(|i| bucket(i << 6)).collect();
        assert!(buckets.len() > 2000, "{} distinct buckets", buckets.len());
    }
}
