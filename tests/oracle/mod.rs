//! A naive IQL reference evaluator: the query semantics written out one
//! row at a time, with none of the engine's machinery — no physical plan
//! or join ordering, no cluster or ranks, no solution batches, no
//! `graph::ops` kernels, no cache, reuse or recovery.
//!
//! Patterns are matched with a full `scan_all` and joined as nested loops
//! in the order they are written. WHERE filters and post-WHERE stages run
//! row by row through `planner::lower_expr` and `Expr::eval` (scalar
//! expression semantics only); with `degrade`, a row whose evaluation
//! fails is dropped instead of failing the query. The result is then
//! shaped by the gather contract (DESIGN.md "Permutation gather"):
//! columns sorted by name, rows sorted by term id, a stable ORDER BY,
//! then SELECT, DISTINCT and LIMIT.

use ids::core::iql::ast::{Query, StageAst, TermAst, TriplePatternAst};
use ids::core::planner::lower_expr;
use ids::core::Datastore;
use ids::graph::{Term, TermId, TriplePattern};
use ids::udf::expr::EvalCtx;
use ids::udf::{Bindings, Expr, ProfileTable, UdfRegistry, UdfValue};
use std::cmp::Ordering;
use std::collections::HashSet;

/// A query answer: variable names and rows of term ids, in result order.
#[derive(Debug, Clone, PartialEq)]
pub struct Answer {
    pub vars: Vec<String>,
    pub rows: Vec<Vec<TermId>>,
}

/// Solutions under construction: variable names plus one row per solution.
struct Table {
    vars: Vec<String>,
    rows: Vec<Vec<TermId>>,
}

/// One row seen as UDF bindings: IRIs stay opaque ids, literals decode to
/// typed values.
struct Row<'a> {
    vars: &'a [String],
    row: &'a [TermId],
    ds: &'a Datastore,
}

impl Row<'_> {
    fn id(&self, var: &str) -> Option<TermId> {
        self.vars.iter().position(|v| v == var).map(|i| self.row[i])
    }
}

impl Bindings for Row<'_> {
    fn get(&self, var: &str) -> Option<UdfValue> {
        let id = self.id(var)?;
        Some(match self.ds.decode(id)? {
            Term::Iri(_) => UdfValue::Id(id.raw()),
            Term::Str(s) => UdfValue::Str(s),
            Term::Int(i) => UdfValue::I64(i),
            Term::FloatBits(b) => UdfValue::F64(f64::from_bits(b)),
        })
    }
}

/// Evaluate `q` over `ds`: `Err` carries the reason, as text, for any
/// query the engine must also refuse. With `degrade`, rows whose FILTER or
/// APPLY evaluation fails are dropped, as the engine's graceful
/// degradation drops them.
pub fn evaluate(
    q: &Query,
    ds: &Datastore,
    registry: &UdfRegistry,
    degrade: bool,
) -> Result<Answer, String> {
    // Lower every expression first: a bad constant fails the query even
    // when no row would reach it.
    let lower = |e| lower_expr(e, ds).map_err(|e| e.to_string());
    let filters: Vec<Expr> = q.filters.iter().map(lower).collect::<Result<_, _>>()?;
    let stages: Vec<(Option<&str>, Expr)> = q
        .stages
        .iter()
        .map(|s| match s {
            StageAst::Filter(e) => Ok((None, lower(e)?)),
            StageAst::Apply(a) => {
                let args = a.args.iter().map(lower).collect::<Result<_, _>>()?;
                Ok((Some(a.bind_as.as_str()), Expr::udf(a.udf.clone(), args)))
            }
        })
        .collect::<Result<_, String>>()?;

    let mut table = Table { vars: Vec::new(), rows: vec![Vec::new()] };
    for p in &q.patterns {
        table = join_pattern(table, p, ds);
    }
    let mut profiles = ProfileTable::new(1);
    for e in filters.iter().chain(stages.iter().map(|(_, e)| e)) {
        e.for_each_udf(&mut |u| profiles.intern(u));
    }
    let mut cx = EvalCtx::new(registry, profiles.row_mut(0));
    // A failed row: dropped under `degrade`, fatal otherwise.
    let drop_failed = |r: Result<bool, String>| match r {
        Err(_) if degrade => Ok(false),
        r => r,
    };
    let mut kept = Vec::new();
    for row in &table.rows {
        let b = Row { vars: &table.vars, row, ds };
        if drop_failed(all_true(&filters, &b, &mut cx))? {
            kept.push(row.clone());
        }
    }
    table.rows = kept;
    for (bind_as, expr) in &stages {
        let mut out = Vec::new();
        for row in &table.rows {
            let b = Row { vars: &table.vars, row, ds };
            match bind_as {
                None => {
                    if drop_failed(all_true(std::slice::from_ref(expr), &b, &mut cx))? {
                        out.push(row.clone());
                    }
                }
                Some(_) => {
                    let value = match expr.eval(&b, &mut cx) {
                        Ok(value) => value,
                        Err(_) if degrade => continue,
                        Err(e) => return Err(e.to_string()),
                    };
                    // A null output drops the row.
                    if let Some(id) = bind(value, ds) {
                        out.push(row.iter().copied().chain([id]).collect());
                    }
                }
            }
        }
        if let Some(var) = bind_as {
            table.vars.push(var.to_string());
        }
        table.rows = out;
    }
    shape(table, q, ds)
}

/// Every expression true on `b`, in order, stopping at the first false.
fn all_true(exprs: &[Expr], b: &Row, cx: &mut EvalCtx) -> Result<bool, String> {
    for e in exprs {
        if !e.eval_bool(b, cx).map_err(|e| e.to_string())? {
            return Ok(false);
        }
    }
    Ok(true)
}

/// The term an APPLY output binds to; `None` for a null.
fn bind(value: UdfValue, ds: &Datastore) -> Option<TermId> {
    let term = match value {
        UdfValue::Id(id) => return Some(TermId(id)),
        UdfValue::Null => return None,
        UdfValue::F64(v) => Term::float(v),
        UdfValue::I64(v) => Term::Int(v),
        UdfValue::Str(s) => Term::str(s),
        UdfValue::Bool(b) => Term::Int(i64::from(b)),
    };
    Some(ds.encode(&term))
}

/// Extend every row of `table` with every triple matching `p` that agrees
/// with the row's bindings (nested loops).
fn join_pattern(table: Table, p: &TriplePatternAst, ds: &Datastore) -> Table {
    let positions = [&p.s, &p.p, &p.o];
    let mut vars = table.vars.clone();
    for v in p.variables() {
        if !vars.iter().any(|x| x == v) {
            vars.push(v.to_string());
        }
    }
    let mut ground = [None; 3];
    for (g, t) in ground.iter_mut().zip(positions) {
        let term = match t {
            TermAst::Var(_) => continue,
            TermAst::Iri(s) => Term::iri(s.clone()),
            TermAst::Str(s) => Term::str(s.clone()),
            TermAst::Int(i) => Term::Int(*i),
            TermAst::Float(x) => Term::float(*x),
        };
        // A ground term the dictionary never saw matches nothing.
        let Some(id) = ds.dictionary().lookup(&term) else {
            return Table { vars, rows: Vec::new() };
        };
        *g = Some(id);
    }
    let triples = ds.graph().scan_all(&TriplePattern::new(ground[0], ground[1], ground[2]));
    let mut rows = Vec::new();
    for row in &table.rows {
        'triple: for t in &triples {
            let mut out = row.clone();
            for (term, id) in positions.into_iter().zip([t.s, t.p, t.o]) {
                let Some(var) = term.as_var() else { continue };
                match vars.iter().position(|x| x == var) {
                    Some(i) if i < out.len() => {
                        if out[i] != id {
                            continue 'triple;
                        }
                    }
                    _ => out.push(id),
                }
            }
            rows.push(out);
        }
    }
    Table { vars, rows }
}

/// The gather contract over the finished solutions.
fn shape(table: Table, q: &Query, ds: &Datastore) -> Result<Answer, String> {
    let mut vars = table.vars.clone();
    vars.sort();
    let canon: Vec<usize> =
        vars.iter().filter_map(|v| table.vars.iter().position(|x| x == v)).collect();
    let mut rows: Vec<Vec<TermId>> =
        table.rows.iter().map(|r| canon.iter().map(|&c| r[c]).collect()).collect();
    rows.sort();
    let sorted = Table { vars, rows };

    let mut rows = sorted.rows;
    let col = |v: &str| sorted.vars.iter().position(|x| x == v);
    if let Some(ob) = &q.order_by {
        let c = col(&ob.var).ok_or(format!("ORDER BY ?{} is never bound", ob.var))?;
        rows.sort_by(|a, b| {
            let ord = order_cmp(ds.decode(a[c]), ds.decode(b[c]));
            if ob.descending {
                ord.reverse()
            } else {
                ord
            }
        });
    }
    let vars = if q.select.is_empty() { sorted.vars.clone() } else { q.select.clone() };
    let cols = vars
        .iter()
        .map(|v| col(v).ok_or(format!("SELECT ?{v} is never bound")))
        .collect::<Result<Vec<_>, _>>()?;
    let mut rows: Vec<Vec<TermId>> =
        rows.iter().map(|r| cols.iter().map(|&c| r[c]).collect()).collect();
    if q.distinct {
        let mut seen = HashSet::new();
        rows.retain(|r| seen.insert(r.clone()));
    }
    rows.truncate(q.limit.unwrap_or(usize::MAX));
    Ok(Answer { vars, rows })
}

/// ORDER BY's order: numbers by value, then other terms by their display
/// form, then undecodable ids.
fn order_cmp(a: Option<Term>, b: Option<Term>) -> Ordering {
    let class = |t: &Option<Term>| match t {
        Some(t) if t.as_f64().is_some() => 0,
        Some(_) => 1,
        None => 2,
    };
    class(&a).cmp(&class(&b)).then_with(|| match (&a, &b) {
        (Some(x), Some(y)) => match (x.as_f64(), y.as_f64()) {
            (Some(u), Some(v)) => u.total_cmp(&v),
            _ => x.to_string().cmp(&y.to_string()),
        },
        _ => Ordering::Equal,
    })
}
