//! Prepared UDF arguments, kept for the life of an instance.
//!
//! A UDF registered with [`UdfRegistry::register_prepared`] splits into a
//! `prepare` that depends only on its first argument's value and a `call`
//! that runs per row. FILTER/APPLY rows are protein × compound pairs, and
//! exploration repeats and overlaps its queries, so the first argument
//! (`?seq`, `?smiles`) repeats across rows, ranks, stages and queries. An
//! [`ArgMemo`] lives as long as its instance: it runs `prepare` once per
//! distinct dictionary id of that argument, and every row still makes its
//! own `call` — its own charge, profile entry, retry and error.
//!
//! The memo is keyed by (prepared UDF, id): the UDF numbered in order of
//! first use, `id` the raw dictionary id [`Bindings::key`] reports. No
//! entry is ever invalidated, because none can go stale: `prepare` is
//! pure in its argument's value, a prepared UDF is static so it is never
//! replaced, and a term id names one term for the dictionary's life
//! (ingest only appends). So any worker of any stage may fill an entry
//! and every later row may read it. The memo holds at most one entry per
//! prepared UDF per term id — the dictionary already holds each term's
//! text.
//!
//! An entry is whatever `prepare` returned for the value: `sw_similarity`'s
//! is the similarity and the charge its `call` reports for every row,
//! `dtba`'s a protein branch that each row's `call` finishes with its
//! ligand. An entry may also hold a cell (`OnceLock`) that the first
//! `call` needing it fills, when the work should not run for rows that do
//! not need it — `vina_docking` docks only on a cache miss, so a hit must
//! not dock. The cell's content must be as pure in the value as `prepare`
//! is (no rank, no cache, no other argument): then it is the same
//! whichever row fills it. A panicking fill leaves the cell empty, so a
//! retried row fills it again. What stays per row is the rest: the call
//! itself, so a cache protocol, a rank-dependent charge and the profile
//! entry are never memoised.
//!
//! [`Bindings::key`]: crate::expr::Bindings::key

use crate::registry::{PrepareFn, PreparedArg, UdfRegistry};
use crate::value::UdfValue;
use ids_obs::{Counter, MetricsRegistry};
use parking_lot::RwLock;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::Arc;

/// One prepared UDF the memo has an entry for.
struct Slot {
    udf: String,
    prepare: PrepareFn,
    /// `ids_udf_prepares_total{udf}`: the entries inserted, one per id.
    inserts: Counter,
}

#[derive(Default)]
struct Entries {
    slots: Vec<Slot>,
    prepared: HashMap<(u32, u64), PreparedArg>,
}

impl Entries {
    fn slot(&self, udf: &str) -> Option<u32> {
        self.slots.iter().position(|s| s.udf == udf).map(|i| i as u32)
    }
}

/// Prepared first arguments, shared by every stage and worker of one
/// instance. `ids_udf_prepares_total{udf}` in the instance's metrics
/// counts its first inserts.
pub struct ArgMemo {
    metrics: MetricsRegistry,
    entries: RwLock<Entries>,
}

/// What the memo holds for a call of one UDF on one id.
pub(crate) enum Lookup {
    /// The argument's prepared form.
    Hit(PreparedArg),
    /// A prepared UDF whose argument no row has prepared yet.
    Miss(PrepareFn),
    /// Not a prepared UDF: the registry calls it.
    Scalar,
}

impl ArgMemo {
    /// An empty memo counting its inserts into `metrics`.
    pub fn new(metrics: &MetricsRegistry) -> Self {
        Self { metrics: metrics.clone(), entries: RwLock::default() }
    }

    /// The entry of `udf` for dictionary id `key`; on a first look at
    /// `udf`, `registry` says whether it is a prepared UDF.
    pub(crate) fn lookup(&self, registry: &UdfRegistry, udf: &str, key: u64) -> Lookup {
        {
            let entries = self.entries.read();
            if let Some(slot) = entries.slot(udf) {
                return match entries.prepared.get(&(slot, key)) {
                    Some(p) => Lookup::Hit(Arc::clone(p)),
                    None => Lookup::Miss(Arc::clone(&entries.slots[slot as usize].prepare)),
                };
            }
        }
        registry.prepare_fn(udf).map_or(Lookup::Scalar, Lookup::Miss)
    }

    /// Run `udf`'s `prepare` on `first` — the value of id `key` — with no
    /// lock held, and keep the result. Two workers racing on one key both
    /// compute the same value; the first insert wins and is the one
    /// counted. A panicking `prepare` leaves no entry, so a retried row
    /// prepares again.
    pub(crate) fn prepare(
        &self,
        udf: &str,
        prepare: &PrepareFn,
        key: u64,
        first: &UdfValue,
    ) -> PreparedArg {
        let fresh = prepare(first);
        let mut entries = self.entries.write();
        let slot = entries.slot(udf).unwrap_or_else(|| {
            entries.slots.push(Slot {
                udf: udf.to_string(),
                prepare: Arc::clone(prepare),
                inserts: self.metrics.counter_with("ids_udf_prepares_total", "udf", udf),
            });
            entries.slots.len() as u32 - 1
        });
        let Entries { slots, prepared } = &mut *entries;
        match prepared.entry((slot, key)) {
            Entry::Occupied(e) => Arc::clone(e.get()),
            Entry::Vacant(e) => {
                slots[slot as usize].inserts.inc();
                Arc::clone(e.insert(fresh))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{Bindings, EvalCtx, Expr};
    use crate::profile::ProfileTable;
    use crate::registry::UdfOutput;
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
        let mut cx = EvalCtx::new(reg, profiles.row_mut(0)).with_memo(memo);
        let value = e.eval(&Row { id }, &mut cx).unwrap();
        UdfOutput::new(value, cx.charged_secs)
    }

    fn prepares(metrics: &MetricsRegistry, udf: &str) -> u64 {
        metrics.snapshot().counter("ids_udf_prepares_total", udf)
    }

    /// `square(?x)`: prepares x², counting each run of `prepare`; every
    /// call charges 1 ms.
    fn squares() -> (UdfRegistry, Arc<AtomicU64>) {
        let reg = UdfRegistry::new();
        let runs = Arc::new(AtomicU64::new(0));
        let r = Arc::clone(&runs);
        reg.register_prepared(
            "square",
            move |v: &UdfValue| {
                r.fetch_add(1, Ordering::SeqCst);
                v.as_f64().unwrap_or(0.0).powi(2)
            },
            |sq: &f64, _: &[UdfValue]| UdfOutput::new(UdfValue::F64(*sq), 1.0e-3),
        )
        .unwrap();
        (reg, runs)
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
            move |v: &UdfValue| {
                if r.fetch_add(1, Ordering::SeqCst) == 0 {
                    panic!("first prepare fails");
                }
                v.as_f64().unwrap_or(0.0)
            },
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
            |v: &UdfValue| (v.as_f64().unwrap_or(0.0), std::sync::OnceLock::new()),
            move |(x, cell): &(f64, std::sync::OnceLock<f64>), rest: &[UdfValue]| {
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
        assert!(memo.entries.read().slots.is_empty(), "no slot for a static UDF");
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
}
