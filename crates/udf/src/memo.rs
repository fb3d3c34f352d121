//! Stage-scoped prepared arguments.
//!
//! A UDF registered with [`UdfRegistry::register_prepared`] splits into a
//! `prepare` that depends only on its first argument's value and a `call`
//! that runs per row. FILTER/APPLY rows are protein × compound pairs, so
//! the first argument (`?seq`) repeats across rows and ranks. A
//! [`StageMemo`] lives for one stage: it runs `prepare` once per distinct
//! dictionary id of that argument, and every row still makes its own
//! `call` — its own charge, profile entry, retry and error.
//!
//! The memo is keyed by `(slot, id)`: `slot` numbers the stage's prepared
//! UDFs, `id` is the raw dictionary id [`Bindings::key`] reports. A term
//! id names one value for the life of a dictionary, and `prepare` is pure
//! in that value, so any worker may fill an entry and every worker may
//! read it. Nothing outlives the stage: this is not a result cache.
//!
//! [`Bindings::key`]: crate::expr::Bindings::key

use crate::expr::Expr;
use crate::registry::{PrepareFn, PreparedArg, UdfRegistry};
use crate::value::UdfValue;
use parking_lot::RwLock;
use std::collections::HashMap;

/// One prepared UDF a stage calls.
struct Slot {
    udf: String,
    prepare: PrepareFn,
}

/// Prepared first arguments for one FILTER/APPLY stage, shared by every
/// worker of the stage. Build it on the calling thread before the fan-out
/// and drop it after the join.
pub struct StageMemo {
    slots: Vec<Slot>,
    prepared: RwLock<HashMap<(u32, u64), PreparedArg>>,
}

impl StageMemo {
    /// A memo for the prepared UDFs `expr` calls; UDFs registered any
    /// other way get no slot and are never memoised.
    pub fn new(registry: &UdfRegistry, expr: &Expr) -> Self {
        let mut slots: Vec<Slot> = Vec::new();
        expr.for_each_udf(&mut |udf| {
            if slots.iter().any(|s| s.udf == udf) {
                return;
            }
            if let Some(prepare) = registry.prepare_fn(udf) {
                slots.push(Slot { udf: udf.to_string(), prepare });
            }
        });
        Self { slots, prepared: RwLock::new(HashMap::new()) }
    }

    /// The slot of `udf`, if it is a prepared UDF of this stage.
    pub(crate) fn slot(&self, udf: &str) -> Option<u32> {
        self.slots.iter().position(|s| s.udf == udf).map(|i| i as u32)
    }

    /// The prepared argument for dictionary id `key` in `slot`, if a row
    /// of this stage has prepared it.
    pub(crate) fn get(&self, slot: u32, key: u64) -> Option<PreparedArg> {
        self.prepared.read().get(&(slot, key)).cloned()
    }

    /// Run `slot`'s `prepare` on `first` — the value of id `key` — with no
    /// lock held, and keep the result. Two workers racing on one key both
    /// compute the same value; the first insert wins. A panicking
    /// `prepare` leaves no entry, so a retried row prepares again.
    pub(crate) fn prepare(&self, slot: u32, key: u64, first: &UdfValue) -> PreparedArg {
        let fresh = (self.slots[slot as usize].prepare)(first);
        PreparedArg::clone(self.prepared.write().entry((slot, key)).or_insert(fresh))
    }

    /// Per prepared UDF: `(name, distinct first arguments prepared)`, in
    /// the order the stage's expression names them.
    pub fn counts(&self) -> Vec<(&str, u64)> {
        let prepared = self.prepared.read();
        let distinct = |slot| prepared.keys().filter(|&&(s, _)| s == slot).count() as u64;
        (0..).zip(&self.slots).map(|(slot, s)| (s.udf.as_str(), distinct(slot))).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{Bindings, EvalCtx};
    use crate::profile::UdfProfiler;
    use crate::registry::UdfOutput;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

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

    fn eval(e: &Expr, reg: &UdfRegistry, memo: &StageMemo, id: u64) -> UdfOutput {
        let mut profiler = UdfProfiler::new();
        let mut cx = EvalCtx::new(reg, &mut profiler).with_memo(memo);
        let value = e.eval(&Row { id }, &mut cx).unwrap();
        UdfOutput::new(value, cx.charged_secs)
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

    #[test]
    fn prepare_runs_once_per_distinct_id_across_threads() {
        let (reg, runs) = squares();
        let e = Expr::udf("square", vec![Expr::var("x")]);
        let memo = StageMemo::new(&reg, &e);
        let start = std::sync::Barrier::new(2);
        let charged: f64 = std::thread::scope(|s| {
            let workers: Vec<_> = (0..2)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        (0..200u64)
                            .map(|i| {
                                let out = eval(&e, &reg, &memo, i % 10);
                                assert_eq!(out.value, UdfValue::F64(((i % 10) as f64).powi(2)));
                                out.virtual_secs
                            })
                            .sum::<f64>()
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).sum()
        });
        assert!((charged - 400.0e-3).abs() < 1e-9, "every row charges its call: {charged}");
        // A race may run `prepare` twice for one id; only one result is kept.
        assert!((10..=20).contains(&runs.load(Ordering::SeqCst)));
        assert_eq!(memo.counts(), vec![("square", 10)]);

        // Unserialized, it is exactly once per id.
        let (reg, runs) = squares();
        let memo = StageMemo::new(&reg, &e);
        for i in 0..200 {
            eval(&e, &reg, &memo, i % 10);
        }
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
        let memo = StageMemo::new(&reg, &e);
        let first = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            eval(&e, &reg, &memo, 7);
        }));
        assert!(first.is_err());
        assert_eq!(memo.counts(), vec![("flaky", 0)]);
        // The retry prepares again and succeeds; the next row hits.
        assert_eq!(eval(&e, &reg, &memo, 7).value, UdfValue::F64(8.0));
        assert_eq!(eval(&e, &reg, &memo, 7).value, UdfValue::F64(8.0));
        assert_eq!(runs.load(Ordering::SeqCst), 2);
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
        let memo = StageMemo::new(&reg, &e);
        assert!(memo.counts().is_empty(), "no slot for a static UDF");
        let mut charged = Vec::new();
        for r in 0..4 {
            rank.store(r, Ordering::SeqCst);
            charged.push(eval(&e, &reg, &memo, 5).virtual_secs);
        }
        assert_eq!(charged, vec![1.0e-3, 2.0e-3, 3.0e-3, 4.0e-3]);
    }

    #[test]
    fn memo_and_direct_call_agree() {
        let (reg, runs) = squares();
        let e = Expr::udf("square", vec![Expr::var("x")]);
        let memo = StageMemo::new(&reg, &e);
        let direct = reg.call("square", &[UdfValue::I64(3)]).unwrap();
        assert_eq!(eval(&e, &reg, &memo, 3), direct);
        assert_eq!(eval(&e, &reg, &memo, 3), direct);
        assert_eq!(runs.load(Ordering::SeqCst), 2, "one direct, one memoised");
    }
}
