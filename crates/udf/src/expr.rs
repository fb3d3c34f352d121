//! FILTER expression trees.
//!
//! "Within IDS, expressions evaluated as part of operators (e.g., FILTER)
//! are represented as expression trees" (§2.4.2). UDF calls are leaves;
//! conjunctions short-circuit, which is what makes the §2.4.3 reordering
//! profitable: a cheap, selective UDF that rejects early saves every later
//! (expensive) UDF in the chain.
//!
//! Evaluation charges virtual cost into an accumulator and feeds the
//! rank's profile row, attributing rejections to the UDF whose conjunct
//! rejected.

use crate::memo::StageMemo;
use crate::profile::ProfileRowMut;
use crate::registry::{Form, PreparedInput, UdfOutput, UdfRegistry, MAX_PREPARED, NULL};
use crate::value::UdfValue;
use std::cmp::Ordering;

/// Variable bindings an expression evaluates against (one solution row).
pub trait Bindings {
    /// The value bound to `var`, if any.
    fn get(&self, var: &str) -> Option<UdfValue>;

    /// An id that names `var`'s value without decoding it: equal ids mean
    /// equal values. Rows of dictionary ids answer with the id; bindings
    /// that hold values directly have none.
    fn key(&self, _var: &str) -> Option<u64> {
        None
    }
}

impl Bindings for std::collections::HashMap<String, UdfValue> {
    fn get(&self, var: &str) -> Option<UdfValue> {
        std::collections::HashMap::get(self, var).cloned()
    }
}

/// Comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    Lt,
    Le,
    Gt,
    Ge,
    Eq,
    Ne,
}

impl CmpOp {
    fn test(self, ord: Ordering) -> bool {
        match self {
            CmpOp::Lt => ord == Ordering::Less,
            CmpOp::Le => ord != Ordering::Greater,
            CmpOp::Gt => ord == Ordering::Greater,
            CmpOp::Ge => ord != Ordering::Less,
            CmpOp::Eq => ord == Ordering::Equal,
            CmpOp::Ne => ord != Ordering::Equal,
        }
    }

    /// Surface syntax for error messages and display.
    pub fn symbol(self) -> &'static str {
        match self {
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
            CmpOp::Eq => "=",
            CmpOp::Ne => "!=",
        }
    }
}

/// A FILTER expression tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// A literal constant.
    Const(UdfValue),
    /// A variable reference.
    Var(String),
    /// Comparison of two sub-expressions.
    Cmp(CmpOp, Box<Expr>, Box<Expr>),
    /// Short-circuit conjunction.
    And(Vec<Expr>),
    /// Short-circuit disjunction.
    Or(Vec<Expr>),
    /// Negation.
    Not(Box<Expr>),
    /// A UDF invocation: `name(args…)`.
    Udf { name: String, args: Vec<Expr> },
}

/// Evaluation failure.
#[derive(Debug, Clone, PartialEq)]
pub enum EvalError {
    UnboundVariable(String),
    NotBoolean(String),
    Incomparable(String),
    UdfFailed(String),
}

impl std::fmt::Display for EvalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EvalError::UnboundVariable(v) => write!(f, "unbound variable ?{v}"),
            EvalError::NotBoolean(e) => write!(f, "expression is not boolean: {e}"),
            EvalError::Incomparable(e) => write!(f, "incomparable operands: {e}"),
            EvalError::UdfFailed(e) => write!(f, "UDF failed: {e}"),
        }
    }
}

impl std::error::Error for EvalError {}

/// Evaluation context: registry to resolve UDFs, the rank's profile row to
/// feed (every UDF of the evaluated expression must have a column), the
/// instance's prepared arguments as the stage resolved them, and the
/// accumulated virtual cost of everything executed so far.
pub struct EvalCtx<'a> {
    pub registry: &'a UdfRegistry,
    pub profiler: ProfileRowMut<'a>,
    /// Prepared arguments shared by the instance, if any.
    pub memo: Option<&'a StageMemo<'a>>,
    /// Virtual seconds charged by UDF executions during evaluation.
    pub charged_secs: f64,
}

impl<'a> EvalCtx<'a> {
    /// Fresh context over a registry and a profile row.
    pub fn new(registry: &'a UdfRegistry, profiler: ProfileRowMut<'a>) -> Self {
        Self { registry, profiler, memo: None, charged_secs: 0.0 }
    }

    /// Look prepared UDFs' arguments up in `memo`, which
    /// [`ArgMemo::stage`](crate::memo::ArgMemo::stage) resolved for the
    /// table of this context's profile row.
    pub fn with_memo(self, memo: &'a StageMemo<'a>) -> Self {
        debug_assert_eq!(memo.columns(), self.profiler.columns(), "memo of another table");
        Self { memo: Some(memo), ..self }
    }
}

impl Expr {
    /// Convenience constructors keep planner code readable.
    pub fn var(name: impl Into<String>) -> Expr {
        Expr::Var(name.into())
    }

    /// `lhs op rhs`.
    pub fn cmp(op: CmpOp, lhs: Expr, rhs: Expr) -> Expr {
        Expr::Cmp(op, Box::new(lhs), Box::new(rhs))
    }

    /// `name(args…)`.
    pub fn udf(name: impl Into<String>, args: Vec<Expr>) -> Expr {
        Expr::Udf { name: name.into(), args }
    }

    /// Names of all UDFs referenced in this subtree, in evaluation order.
    pub fn udf_names(&self) -> Vec<&str> {
        let mut out = Vec::new();
        self.for_each_udf(&mut |name| out.push(name));
        out
    }

    /// Visit the name of every UDF referenced in this subtree, in
    /// evaluation order, without collecting them.
    pub fn for_each_udf<'e>(&'e self, f: &mut impl FnMut(&'e str)) {
        match self {
            Expr::Const(_) | Expr::Var(_) => {}
            Expr::Cmp(_, a, b) => {
                a.for_each_udf(f);
                b.for_each_udf(f);
            }
            Expr::And(es) | Expr::Or(es) => es.iter().for_each(|e| e.for_each_udf(f)),
            Expr::Not(e) => e.for_each_udf(f),
            Expr::Udf { name, args } => {
                f(name);
                args.iter().for_each(|a| a.for_each_udf(f));
            }
        }
    }

    /// Evaluate to a value.
    pub fn eval(&self, bindings: &dyn Bindings, cx: &mut EvalCtx) -> Result<UdfValue, EvalError> {
        match self {
            Expr::Const(v) => Ok(v.clone()),
            Expr::Var(name) => {
                bindings.get(name).ok_or_else(|| EvalError::UnboundVariable(name.clone()))
            }
            Expr::Cmp(op, a, b) => {
                let va = a.eval(bindings, cx)?;
                let vb = b.eval(bindings, cx)?;
                let ord = va
                    .compare(&vb)
                    .ok_or_else(|| EvalError::Incomparable(format!("{va} {} {vb}", op.symbol())))?;
                Ok(UdfValue::Bool(op.test(ord)))
            }
            Expr::And(es) => {
                for e in es {
                    if !e.eval_bool(bindings, cx)? {
                        // Attribute the rejection to the UDFs in the failing
                        // conjunct (§2.4.1: rejection counts per UDF).
                        e.for_each_udf(&mut |udf| cx.profiler.record_rejection(udf));
                        return Ok(UdfValue::Bool(false));
                    }
                }
                Ok(UdfValue::Bool(true))
            }
            Expr::Or(es) => {
                for e in es {
                    if e.eval_bool(bindings, cx)? {
                        return Ok(UdfValue::Bool(true));
                    }
                }
                Ok(UdfValue::Bool(false))
            }
            Expr::Not(e) => Ok(UdfValue::Bool(!e.eval_bool(bindings, cx)?)),
            Expr::Udf { name, args } => {
                let column = cx.profiler.column(name);
                let out = Self::call_udf(name, column, args, bindings, cx)?;
                cx.charged_secs += out.virtual_secs;
                cx.profiler.record_call_at(column, name, out.virtual_secs);
                Ok(out.value)
            }
        }
    }

    /// Run one UDF call. A prepared UDF (the stage resolved the slot of
    /// its profile `column`) takes each leading argument bound to a
    /// dictionary id from the memo — on a hit without decoding it — and
    /// calls its `call` with their forms and the rest, without entering
    /// the registry.
    fn call_udf(
        name: &str,
        column: Option<usize>,
        args: &[Expr],
        bindings: &dyn Bindings,
        cx: &mut EvalCtx,
    ) -> Result<UdfOutput, EvalError> {
        let Some((memo, slot)) = cx.memo.and_then(|m| m.site(column)) else {
            return Self::call_scalar(name, args, bindings, cx);
        };
        let positions = slot.positions();
        let (prepared, rest) = args.split_at(positions.min(args.len()));
        let mut keys = [None; MAX_PREPARED];
        for (key, arg) in keys.iter_mut().zip(prepared) {
            if let Expr::Var(var) = arg {
                *key = bindings.key(var);
            }
        }
        let mut forms: [Option<Form>; MAX_PREPARED] = Default::default();
        memo.lookup(slot, &keys[..prepared.len()], &mut forms);
        // What the memo does not hold evaluates in argument order, as in
        // the scalar path: a missed id decodes now (an unbound variable
        // fails here), a constant or nested call runs as always.
        let mut values: [Option<UdfValue>; MAX_PREPARED] = Default::default();
        for ((value, form), arg) in values.iter_mut().zip(&forms).zip(prepared) {
            if form.is_none() {
                *value = Some(arg.eval(bindings, cx)?);
            }
        }
        let rest = Self::eval_args(rest, bindings, cx)?;
        // Misses prepare only once every argument has evaluated, as
        // `call` would: a missed id's form is kept for the instance, any
        // other position's is made for this call only.
        for (pos, form) in forms.iter_mut().enumerate() {
            if let (None, Some(id), Some(value)) = (&*form, keys[pos], &values[pos]) {
                *form = memo.keep(slot, pos, id, value);
            }
        }
        let inputs: [PreparedInput<'_>; MAX_PREPARED] =
            std::array::from_fn(|pos| match (&forms[pos], &values[pos]) {
                (Some(form), _) => PreparedInput::Form(&**form),
                (None, value) => PreparedInput::Value(value.as_ref().unwrap_or(NULL)),
            });
        Ok(slot.call(&inputs[..positions], &rest))
    }

    /// Evaluate every argument, then call through the registry.
    fn call_scalar(
        name: &str,
        args: &[Expr],
        bindings: &dyn Bindings,
        cx: &mut EvalCtx,
    ) -> Result<UdfOutput, EvalError> {
        let arg_vals = Self::eval_args(args, bindings, cx)?;
        cx.registry.call(name, &arg_vals).map_err(EvalError::UdfFailed)
    }

    fn eval_args(
        args: &[Expr],
        bindings: &dyn Bindings,
        cx: &mut EvalCtx,
    ) -> Result<Vec<UdfValue>, EvalError> {
        args.iter().map(|a| a.eval(bindings, cx)).collect()
    }

    /// Evaluate expecting a boolean.
    pub fn eval_bool(&self, bindings: &dyn Bindings, cx: &mut EvalCtx) -> Result<bool, EvalError> {
        let v = self.eval(bindings, cx)?;
        v.as_bool().ok_or_else(|| EvalError::NotBoolean(format!("{v}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;
    use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};
    use std::sync::Arc;

    use crate::profile::ProfileTable;

    /// A one-rank profile table with a column for every UDF of `e`.
    fn profiles(e: &Expr) -> ProfileTable {
        let mut t = ProfileTable::new(1);
        e.for_each_udf(&mut |u| t.intern(u));
        t
    }

    fn bindings(pairs: &[(&str, UdfValue)]) -> HashMap<String, UdfValue> {
        pairs.iter().map(|(k, v)| (k.to_string(), v.clone())).collect()
    }

    fn registry_with_counter() -> (UdfRegistry, Arc<AtomicU64>) {
        let r = UdfRegistry::new();
        let count = Arc::new(AtomicU64::new(0));
        let c = Arc::clone(&count);
        r.register_static(
            "expensive_true",
            Arc::new(move |_| {
                c.fetch_add(1, AtomicOrdering::SeqCst);
                UdfOutput::new(UdfValue::Bool(true), 10.0)
            }),
        )
        .unwrap();
        r.register_static(
            "half",
            Arc::new(|args| {
                let x = args[0].as_f64().unwrap();
                UdfOutput::new(UdfValue::F64(x / 2.0), 0.5)
            }),
        )
        .unwrap();
        (r, count)
    }

    #[test]
    fn comparisons_over_bindings() {
        let (r, _) = registry_with_counter();
        let mut p = ProfileTable::new(1);
        let mut cx = EvalCtx::new(&r, p.row_mut(0));
        let b = bindings(&[("sim", UdfValue::F64(0.92))]);
        let e = Expr::cmp(CmpOp::Ge, Expr::var("sim"), Expr::Const(UdfValue::F64(0.9)));
        assert!(e.eval_bool(&b, &mut cx).unwrap());
        let e2 = Expr::cmp(CmpOp::Gt, Expr::var("sim"), Expr::Const(UdfValue::F64(0.99)));
        assert!(!e2.eval_bool(&b, &mut cx).unwrap());
    }

    #[test]
    fn and_short_circuits_skipping_expensive_udf() {
        let (r, count) = registry_with_counter();
        let mut p = ProfileTable::new(1);
        let mut cx = EvalCtx::new(&r, p.row_mut(0));
        let b = bindings(&[("x", UdfValue::F64(1.0))]);
        // First conjunct false → the expensive UDF never runs.
        let e = Expr::And(vec![
            Expr::Const(UdfValue::Bool(false)),
            Expr::udf("expensive_true", vec![]),
        ]);
        assert!(!e.eval_bool(&b, &mut cx).unwrap());
        assert_eq!(count.load(AtomicOrdering::SeqCst), 0);
        assert_eq!(cx.charged_secs, 0.0);
    }

    #[test]
    fn udf_cost_is_charged_and_profiled() {
        let (r, _) = registry_with_counter();
        let e = Expr::cmp(
            CmpOp::Eq,
            Expr::udf("half", vec![Expr::var("x")]),
            Expr::Const(UdfValue::F64(4.0)),
        );
        let mut p = profiles(&e);
        let mut cx = EvalCtx::new(&r, p.row_mut(0));
        let b = bindings(&[("x", UdfValue::F64(8.0))]);
        assert!(e.eval_bool(&b, &mut cx).unwrap());
        assert!((cx.charged_secs - 0.5).abs() < 1e-12);
        assert_eq!(p.row(0).get("half").unwrap().calls, 1);
    }

    #[test]
    fn rejections_attributed_to_failing_conjunct() {
        let (r, _) = registry_with_counter();
        r.register_static("always_false", Arc::new(|_| UdfOutput::new(UdfValue::Bool(false), 0.1)))
            .unwrap();
        let e =
            Expr::And(vec![Expr::udf("always_false", vec![]), Expr::udf("expensive_true", vec![])]);
        let mut p = profiles(&e);
        let mut cx = EvalCtx::new(&r, p.row_mut(0));
        assert!(!e.eval_bool(&bindings(&[]), &mut cx).unwrap());
        assert_eq!(p.row(0).get("always_false").unwrap().rejections, 1);
        assert!(p.row(0).get("expensive_true").is_none(), "never ran, never profiled");
    }

    #[test]
    fn or_and_not_semantics() {
        let (r, _) = registry_with_counter();
        let mut p = ProfileTable::new(1);
        let mut cx = EvalCtx::new(&r, p.row_mut(0));
        let b = bindings(&[]);
        let t = Expr::Const(UdfValue::Bool(true));
        let f = Expr::Const(UdfValue::Bool(false));
        assert!(Expr::Or(vec![f.clone(), t.clone()]).eval_bool(&b, &mut cx).unwrap());
        assert!(!Expr::Or(vec![f.clone(), f.clone()]).eval_bool(&b, &mut cx).unwrap());
        assert!(Expr::Not(Box::new(f)).eval_bool(&b, &mut cx).unwrap());
    }

    #[test]
    fn errors_are_reported() {
        let (r, _) = registry_with_counter();
        let mut p = ProfileTable::new(1);
        let mut cx = EvalCtx::new(&r, p.row_mut(0));
        let b = bindings(&[]);
        assert!(matches!(
            Expr::var("missing").eval(&b, &mut cx),
            Err(EvalError::UnboundVariable(_))
        ));
        assert!(matches!(
            Expr::Const(UdfValue::F64(1.0)).eval_bool(&b, &mut cx),
            Err(EvalError::NotBoolean(_))
        ));
        assert!(matches!(
            Expr::cmp(
                CmpOp::Lt,
                Expr::Const(UdfValue::Str("a".into())),
                Expr::Const(UdfValue::I64(1))
            )
            .eval(&b, &mut cx),
            Err(EvalError::Incomparable(_))
        ));
        assert!(matches!(
            Expr::udf("ghost", vec![]).eval(&b, &mut cx),
            Err(EvalError::UdfFailed(_))
        ));
    }

    #[test]
    fn udf_names_walks_whole_tree() {
        let e = Expr::And(vec![
            Expr::cmp(
                CmpOp::Ge,
                Expr::udf("sw", vec![Expr::var("p")]),
                Expr::Const(UdfValue::F64(0.9)),
            ),
            Expr::Not(Box::new(Expr::udf("dtba", vec![Expr::var("c")]))),
        ]);
        assert_eq!(e.udf_names(), vec!["sw", "dtba"]);
    }
}
