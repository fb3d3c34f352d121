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

/// A prepared UDF's `call` bound to what its `prepare` returned for one
/// first-argument value; it takes the remaining arguments.
pub(crate) type PreparedArg = Arc<dyn Fn(&[UdfValue]) -> UdfOutput + Send + Sync>;

/// The `prepare` half of a prepared UDF, with its result bound to `call`.
pub(crate) type PrepareFn = Arc<dyn Fn(&UdfValue) -> PreparedArg + Send + Sync>;

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
    /// `prepare` over the first argument, then `call` over the rest
    /// ([`UdfRegistry::register_prepared`]).
    Prepared(PrepareFn),
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

    /// Register a statically linked UDF whose first argument is worth
    /// preparing once and reusing. `prepare` maps the first argument's
    /// value to a `P`; it must be a pure function of that value — it may
    /// not read `current_rank()` or a cache. `call` gets the `P` and the
    /// remaining arguments once per row, and may read the rank. A `P`
    /// may hold a cell that `call` fills on first need, provided what it
    /// puts there is as pure in the value as `prepare` (see the
    /// [`memo`](crate::memo) module).
    ///
    /// [`Self::call`] runs `prepare` then `call`. FILTER/APPLY stages
    /// evaluating through an instance's [`ArgMemo`](crate::memo::ArgMemo)
    /// run `prepare` once per distinct dictionary id of the first argument
    /// for the instance's life instead — purity is what lets its result
    /// outlive the stage and query that made it — and still run `call`,
    /// and charge it, once per row. Same duplicate rule as
    /// [`Self::register_static`], so a prepared UDF is never replaced.
    pub fn register_prepared<P, F, C>(&self, name: &str, prepare: F, call: C) -> Result<(), String>
    where
        P: Send + Sync + 'static,
        F: Fn(&UdfValue) -> P + Send + Sync + 'static,
        C: Fn(&P, &[UdfValue]) -> UdfOutput + Send + Sync + 'static,
    {
        let call = Arc::new(call);
        let prepare: PrepareFn = Arc::new(move |first: &UdfValue| {
            let (p, call) = (prepare(first), Arc::clone(&call));
            Arc::new(move |rest: &[UdfValue]| call(&p, rest)) as PreparedArg
        });
        self.insert_static(name, Body::Prepared(prepare))
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

    /// The `prepare` half of `name`, if it was registered with
    /// [`Self::register_prepared`].
    pub(crate) fn prepare_fn(&self, name: &str) -> Option<PrepareFn> {
        match &self.entries.read().get(name)?.body {
            Body::Prepared(prepare) => Some(Arc::clone(prepare)),
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
            Body::Prepared(prepare) => match args.split_first() {
                Some((first, rest)) => prepare(first)(rest),
                None => prepare(&UdfValue::Null)(&[]),
            },
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
