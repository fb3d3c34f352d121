//! The UDF registry.
//!
//! §2.3: CGE supported only statically linked C/C++ UDFs, loaded once at
//! launch; IDS adds dynamically loaded Python UDFs with a module cache
//! ("the overhead is only incurred the first time a module loads") and a
//! force-reload API so users can iterate on their code inside a running
//! instance. We mirror both paths: *static* UDFs are registered by unique
//! name before launch; *dynamic* UDFs are registered as (module, method)
//! pairs, pay a simulated module-load cost on first use, and can be
//! reloaded with replacement behaviour.

use crate::value::UdfValue;
use parking_lot::RwLock;
use std::any::Any;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// A UDF invocation's result: value plus the virtual cost it charged.
#[derive(Debug, Clone, PartialEq)]
pub struct UdfOutput {
    pub value: UdfValue,
    pub virtual_secs: f64,
}

impl UdfOutput {
    /// Convenience constructor.
    pub fn new(value: UdfValue, virtual_secs: f64) -> Self {
        Self { value, virtual_secs }
    }
}

/// The callable backing a UDF.
pub type UdfFn = Arc<dyn Fn(&[UdfValue]) -> UdfOutput + Send + Sync>;

/// A prepared argument's form as the memo keeps it.
pub(crate) type Form = Arc<dyn Any + Send + Sync>;

/// The most leading argument positions a UDF can have prepared.
pub(crate) const MAX_PREPARED: usize = 2;

/// One prepared position of a call as its `call` receives it: the form
/// the memo keeps, or the value to prepare for this call only.
#[derive(Clone, Copy)]
pub enum PreparedInput<'a> {
    /// A form the position's own `prepare` made.
    Form(&'a (dyn Any + Send + Sync)),
    /// The argument's value (`Null` when absent).
    Value(&'a UdfValue),
}

/// The `prepare` of one argument position: a pure function of the
/// argument's value. Any `Fn(&UdfValue) -> P` is one.
pub trait PrepareArg: Send + Sync + 'static {
    /// The prepared form.
    type Form: Send + Sync + 'static;

    /// Prepare `value`.
    fn prepare(&self, value: &UdfValue) -> Self::Form;
}

impl<F, P> PrepareArg for F
where
    F: Fn(&UdfValue) -> P + Send + Sync + 'static,
    P: Send + Sync + 'static,
{
    type Form = P;

    fn prepare(&self, value: &UdfValue) -> P {
        self(value)
    }
}

/// A prepared position's form for one call: borrowed from the memo, or
/// made for this call.
enum Local<'a, P> {
    Kept(&'a P),
    Made(P),
}

impl<P> Local<'_, P> {
    fn get(&self) -> &P {
        match self {
            Local::Kept(p) => p,
            Local::Made(p) => p,
        }
    }
}

/// `input`'s form at a position `prepare` owns; `None` for a form another
/// position made (a memo bug, never a user error).
fn local<'a, A: PrepareArg>(prepare: &A, input: PreparedInput<'a>) -> Option<Local<'a, A::Form>> {
    match input {
        PreparedInput::Form(form) => form.downcast_ref().map(Local::Kept),
        PreparedInput::Value(value) => Some(Local::Made(prepare.prepare(value))),
    }
}

/// The `prepare`s of a prepared UDF, one for each leading argument
/// position it prepares: a tuple of one or two [`PrepareArg`]s.
pub trait Prepare: Send + Sync + 'static {
    /// What `call` receives: a reference to the one position's form, or a
    /// tuple of references, one per position.
    type Forms<'a>;

    /// The number of prepared positions.
    const POSITIONS: usize;

    /// Position `pos`'s form of `value`, to keep.
    fn prepare_at(&self, pos: usize, value: &UdfValue) -> Option<Form>;

    /// Run `f` on the forms of `inputs`, one per position, preparing the
    /// values among them for this call only.
    fn with_forms<R>(
        &self,
        inputs: &[PreparedInput<'_>],
        f: impl FnOnce(Self::Forms<'_>) -> R,
    ) -> Option<R>;
}

impl<A: PrepareArg> Prepare for (A,) {
    type Forms<'a> = &'a A::Form;
    const POSITIONS: usize = 1;

    fn prepare_at(&self, pos: usize, value: &UdfValue) -> Option<Form> {
        (pos == 0).then(|| Arc::new(self.0.prepare(value)) as Form)
    }

    fn with_forms<R>(
        &self,
        inputs: &[PreparedInput<'_>],
        f: impl FnOnce(Self::Forms<'_>) -> R,
    ) -> Option<R> {
        let [a] = inputs else { return None };
        let a = local(&self.0, *a)?;
        Some(f(a.get()))
    }
}

impl<A: PrepareArg, B: PrepareArg> Prepare for (A, B) {
    type Forms<'a> = (&'a A::Form, &'a B::Form);
    const POSITIONS: usize = 2;

    fn prepare_at(&self, pos: usize, value: &UdfValue) -> Option<Form> {
        match pos {
            0 => Some(Arc::new(self.0.prepare(value))),
            1 => Some(Arc::new(self.1.prepare(value))),
            _ => None,
        }
    }

    fn with_forms<R>(
        &self,
        inputs: &[PreparedInput<'_>],
        f: impl FnOnce(Self::Forms<'_>) -> R,
    ) -> Option<R> {
        let [a, b] = inputs else { return None };
        let (a, b) = (local(&self.0, *a)?, local(&self.1, *b)?);
        Some(f((a.get(), b.get())))
    }
}

/// A prepared UDF with its types erased, as the registry and the memo
/// hold it.
pub(crate) trait PreparedUdf: Send + Sync {
    /// How many leading argument positions are prepared.
    fn positions(&self) -> usize;

    /// Position `pos`'s form of `value`.
    fn prepare(&self, pos: usize, value: &UdfValue) -> Option<Form>;

    /// The per-row `call` on one input per prepared position and the
    /// remaining arguments.
    fn call(&self, inputs: &[PreparedInput<'_>], rest: &[UdfValue]) -> UdfOutput;
}

/// [`UdfRegistry::register_prepared`]'s `prepare`s and `call`.
struct Typed<A, C> {
    prepare: A,
    call: C,
}

impl<A, C> PreparedUdf for Typed<A, C>
where
    A: Prepare,
    C: for<'a> Fn(A::Forms<'a>, &[UdfValue]) -> UdfOutput + Send + Sync,
{
    fn positions(&self) -> usize {
        A::POSITIONS
    }

    fn prepare(&self, pos: usize, value: &UdfValue) -> Option<Form> {
        self.prepare.prepare_at(pos, value)
    }

    fn call(&self, inputs: &[PreparedInput<'_>], rest: &[UdfValue]) -> UdfOutput {
        // Every kept form came from this UDF's `prepare` at its own
        // position, so the types always match; a mismatch would be a memo
        // bug, and reads as a null.
        self.prepare
            .with_forms(inputs, |forms| (self.call)(forms, rest))
            .unwrap_or(UdfOutput::new(UdfValue::Null, 0.0))
    }
}

/// What an absent argument is prepared from.
pub(crate) const NULL: &UdfValue = &UdfValue::Null;

/// How a UDF was registered (paper §2.4.1: "IDS tracks statically linked
/// UDFs using their unique name and dynamically loaded UDFs using the
/// Python module name and method name").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UdfKind {
    /// Compiled in at launch; cannot be replaced.
    Static,
    /// Dynamically imported; reloadable, pays a first-load cost.
    Dynamic,
}

/// What runs when a UDF is called.
#[derive(Clone)]
enum Body {
    /// One closure over all the arguments.
    Scalar(UdfFn),
    /// A `prepare` per leading argument, then `call` over their forms and
    /// the rest ([`UdfRegistry::register_prepared`]).
    Prepared(Arc<dyn PreparedUdf>),
}

struct Entry {
    kind: UdfKind,
    body: Body,
    /// Dynamic modules pay this once, on first call after (re)load.
    load_cost: f64,
    /// Flipped by the first call, under the map's read lock: concurrent
    /// callers never serialize on it, and exactly one pays `load_cost`.
    loaded: AtomicBool,
    generation: u64,
}

/// Thread-safe registry of UDFs.
#[derive(Default)]
pub struct UdfRegistry {
    entries: RwLock<HashMap<String, Entry>>,
}

impl UdfRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Canonical name for a dynamic UDF: `module.method`.
    pub fn dynamic_name(module: &str, method: &str) -> String {
        format!("{module}.{method}")
    }

    /// Register a statically linked UDF. Errors if the name exists —
    /// static UDFs "cannot be modified once IDS launched".
    pub fn register_static(&self, name: &str, func: UdfFn) -> Result<(), String> {
        self.insert_static(name, Body::Scalar(func))
    }

    /// Register a statically linked UDF whose leading arguments are worth
    /// preparing once and reusing. `prepare` holds one [`PrepareArg`] per
    /// prepared position — `(p,)` for the first argument, `(p, q)` for
    /// the first two — and each maps its argument's value to a form; it
    /// must be a pure function of that value — it may not read
    /// `current_rank()`, a cache or another argument. `call` gets the forms
    /// (a reference, or a tuple of references) and the remaining arguments
    /// once per row, and may read the rank. An absent argument is prepared
    /// from `Null`. A form may hold a cell that `call` fills on first need,
    /// provided what it puts there is as pure in the value as `prepare`
    /// (see the [`memo`](crate::memo) module).
    ///
    /// [`Self::call`] prepares every position, then runs `call`.
    /// FILTER/APPLY stages evaluating through an instance's
    /// [`ArgMemo`](crate::memo::ArgMemo) instead prepare a position bound
    /// to a dictionary id once per distinct id for the instance's life —
    /// purity is what lets a form outlive the stage and query that made
    /// it, so no entry is ever invalidated — and still run `call`, and
    /// charge it, once per row. Same duplicate rule as
    /// [`Self::register_static`], so a prepared UDF is never replaced.
    pub fn register_prepared<A, C>(&self, name: &str, prepare: A, call: C) -> Result<(), String>
    where
        A: Prepare,
        C: for<'a> Fn(A::Forms<'a>, &[UdfValue]) -> UdfOutput + Send + Sync + 'static,
    {
        if A::POSITIONS > MAX_PREPARED {
            return Err(format!("{name:?} prepares more than {MAX_PREPARED} arguments"));
        }
        self.insert_static(name, Body::Prepared(Arc::new(Typed { prepare, call })))
    }

    fn insert_static(&self, name: &str, body: Body) -> Result<(), String> {
        let mut map = self.entries.write();
        if map.contains_key(name) {
            return Err(format!("static UDF {name:?} already registered"));
        }
        map.insert(
            name.to_string(),
            Entry {
                kind: UdfKind::Static,
                body,
                load_cost: 0.0,
                loaded: AtomicBool::new(true),
                generation: 0,
            },
        );
        Ok(())
    }

    /// Register (import) a dynamic UDF. `load_cost` models the Python
    /// module import the paper caches. Re-registering an existing dynamic
    /// UDF is an error; use [`Self::reload_dynamic`] to replace it.
    pub fn register_dynamic(
        &self,
        module: &str,
        method: &str,
        load_cost: f64,
        func: UdfFn,
    ) -> Result<(), String> {
        let name = Self::dynamic_name(module, method);
        let mut map = self.entries.write();
        if map.contains_key(&name) {
            return Err(format!("dynamic UDF {name:?} already registered (use reload)"));
        }
        map.insert(
            name,
            Entry {
                kind: UdfKind::Dynamic,
                body: Body::Scalar(func),
                load_cost,
                loaded: AtomicBool::new(false),
                generation: 0,
            },
        );
        Ok(())
    }

    /// Force-reload a dynamic UDF with new code: the module cache entry is
    /// invalidated (next call pays the load cost again) and the generation
    /// counter bumps.
    pub fn reload_dynamic(
        &self,
        module: &str,
        method: &str,
        load_cost: f64,
        func: UdfFn,
    ) -> Result<u64, String> {
        let name = Self::dynamic_name(module, method);
        let mut map = self.entries.write();
        match map.get_mut(&name) {
            Some(e) if e.kind == UdfKind::Dynamic => {
                e.body = Body::Scalar(func);
                e.load_cost = load_cost;
                *e.loaded.get_mut() = false;
                e.generation += 1;
                Ok(e.generation)
            }
            Some(_) => Err(format!("{name:?} is a static UDF; cannot reload")),
            None => Err(format!("dynamic UDF {name:?} not registered")),
        }
    }

    /// Kind of a registered UDF.
    pub fn kind(&self, name: &str) -> Option<UdfKind> {
        self.entries.read().get(name).map(|e| e.kind)
    }

    /// Current generation of a UDF (bumps on reload).
    pub fn generation(&self, name: &str) -> Option<u64> {
        self.entries.read().get(name).map(|e| e.generation)
    }

    /// Whether `name` is registered and its module is loaded: static UDFs
    /// always are, a dynamic one once a call has paid its load cost.
    /// Whichever call comes first pays it, so a caller that needs that
    /// charge to land deterministically checks here and calls in order.
    pub fn is_loaded(&self, name: &str) -> bool {
        self.entries.read().get(name).is_some_and(|e| e.loaded.load(Ordering::Acquire))
    }

    /// `name`, if it was registered with [`Self::register_prepared`].
    pub(crate) fn prepared(&self, name: &str) -> Option<Arc<dyn PreparedUdf>> {
        match &self.entries.read().get(name)?.body {
            Body::Prepared(udf) => Some(Arc::clone(udf)),
            Body::Scalar(_) => None,
        }
    }

    /// Invoke a UDF. Returns the output with the module-load cost folded
    /// into `virtual_secs` on the first call after (re)load — the module
    /// cache the paper describes.
    pub fn call(&self, name: &str, args: &[UdfValue]) -> Result<UdfOutput, String> {
        // Clone the Arc out so user code runs without holding the lock.
        let (body, first_load_cost) = {
            let map = self.entries.read();
            let e = map.get(name).ok_or_else(|| format!("unknown UDF {name:?}"))?;
            // Read first: once loaded, a call writes nothing shared, so
            // concurrent callers do not pass the flag's cache line around.
            let first = !e.loaded.load(Ordering::Acquire) && !e.loaded.swap(true, Ordering::AcqRel);
            (e.body.clone(), if first { e.load_cost } else { 0.0 })
        };
        let mut out = match body {
            Body::Scalar(func) => func(args),
            Body::Prepared(udf) => {
                let n = udf.positions();
                let (head, rest) = args.split_at(n.min(args.len()));
                let inputs: [PreparedInput<'_>; MAX_PREPARED] =
                    std::array::from_fn(|i| PreparedInput::Value(head.get(i).unwrap_or(NULL)));
                udf.call(&inputs[..n], rest)
            }
        };
        out.virtual_secs += first_load_cost;
        Ok(out)
    }

    /// Names of all registered UDFs.
    pub fn names(&self) -> Vec<String> {
        self.entries.read().keys().cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn double() -> UdfFn {
        Arc::new(|args| {
            let x = args[0].as_f64().unwrap_or(0.0);
            UdfOutput::new(UdfValue::F64(2.0 * x), 0.001)
        })
    }

    fn triple() -> UdfFn {
        Arc::new(|args| {
            let x = args[0].as_f64().unwrap_or(0.0);
            UdfOutput::new(UdfValue::F64(3.0 * x), 0.001)
        })
    }

    #[test]
    fn static_registration_and_call() {
        let r = UdfRegistry::new();
        r.register_static("dbl", double()).unwrap();
        let out = r.call("dbl", &[UdfValue::F64(21.0)]).unwrap();
        assert_eq!(out.value, UdfValue::F64(42.0));
        assert_eq!(r.kind("dbl"), Some(UdfKind::Static));
    }

    #[test]
    fn static_cannot_be_replaced() {
        let r = UdfRegistry::new();
        r.register_static("dbl", double()).unwrap();
        assert!(r.register_static("dbl", triple()).is_err());
        assert!(r.reload_dynamic("dbl", "", 0.0, triple()).is_err());
    }

    #[test]
    fn dynamic_pays_load_cost_once() {
        let r = UdfRegistry::new();
        r.register_dynamic("mymod", "score", 2.5, double()).unwrap();
        let first = r.call("mymod.score", &[UdfValue::F64(1.0)]).unwrap();
        let second = r.call("mymod.score", &[UdfValue::F64(1.0)]).unwrap();
        assert!(
            (first.virtual_secs - 2.501).abs() < 1e-9,
            "first call pays import: {}",
            first.virtual_secs
        );
        assert!(
            (second.virtual_secs - 0.001).abs() < 1e-9,
            "cached module: {}",
            second.virtual_secs
        );
    }

    #[test]
    fn concurrent_first_calls_charge_the_load_cost_exactly_once() {
        let r = UdfRegistry::new();
        r.register_dynamic("mymod", "score", 2.5, double()).unwrap();
        // Eight threads of 50 calls, and two (a pool phase on two cores)
        // of 500, all racing for the first call.
        for (threads, calls) in [(8, 50), (2, 500)] {
            r.reload_dynamic("mymod", "score", 2.5, double()).unwrap();
            assert!(!r.is_loaded("mymod.score"));
            let start = std::sync::Barrier::new(threads);
            let loads: usize = std::thread::scope(|s| {
                let callers: Vec<_> = (0..threads)
                    .map(|_| {
                        s.spawn(|| {
                            start.wait();
                            (0..calls)
                                .filter(|_| {
                                    let out = r.call("mymod.score", &[UdfValue::F64(1.0)]);
                                    out.unwrap().virtual_secs > 1.0
                                })
                                .count()
                        })
                    })
                    .collect();
                callers.into_iter().map(|c| c.join().unwrap()).sum()
            });
            assert_eq!(loads, 1, "one of {} concurrent calls pays the import", threads * calls);
        }
        assert!(r.is_loaded("mymod.score"));
        r.reload_dynamic("mymod", "score", 2.5, double()).unwrap();
        assert!(!r.is_loaded("mymod.score"), "a reload unloads the module");
        r.register_static("dbl", double()).unwrap();
        assert!(r.is_loaded("dbl"), "static UDFs are loaded at registration");
        assert!(!r.is_loaded("nope"));
    }

    #[test]
    fn reload_swaps_code_and_recharges_load() {
        let r = UdfRegistry::new();
        r.register_dynamic("mymod", "score", 1.0, double()).unwrap();
        r.call("mymod.score", &[UdfValue::F64(1.0)]).unwrap();
        let gen = r.reload_dynamic("mymod", "score", 1.0, triple()).unwrap();
        assert_eq!(gen, 1);
        let out = r.call("mymod.score", &[UdfValue::F64(2.0)]).unwrap();
        assert_eq!(out.value, UdfValue::F64(6.0), "new code in effect");
        assert!(out.virtual_secs > 1.0, "reload pays the import again");
    }

    #[test]
    fn duplicate_dynamic_requires_reload() {
        let r = UdfRegistry::new();
        r.register_dynamic("m", "f", 0.1, double()).unwrap();
        assert!(r.register_dynamic("m", "f", 0.1, triple()).is_err());
    }

    #[test]
    fn unknown_udf_errors() {
        let r = UdfRegistry::new();
        assert!(r.call("nope", &[]).is_err());
        assert_eq!(r.kind("nope"), None);
    }
}
