//! AST canonicalization and plan-fragment fingerprints.
//!
//! Semantic result reuse (ids-serve) needs a *stable identity* for a query
//! fragment: two clients writing the same logical query with different
//! variable names, or with their commutative FILTER conjuncts in a
//! different order, must key into the same cached intermediates. This
//! module computes that identity:
//!
//! 1. **Commutative normalization** — triple patterns and FILTER conjuncts
//!    are unordered (the planner reorders them anyway); `&&`/`||` operands
//!    are unordered. Each is sorted by a variable-name-independent render.
//! 2. **α-renaming** — variables are renamed to `c0, c1, …` by first
//!    occurrence in the normalized form, so names chosen by the author
//!    vanish. To sort *before* names exist, a short color-refinement pass
//!    (in the spirit of Weisfeiler–Leman) assigns each variable a color
//!    from its occurrence structure; sorting keys on colors, then the
//!    final naming keys on the sorted order.
//! 3. **Fingerprint** — a 64-bit FNV-1a over the canonical text (plus
//!    length), stable across runs and platforms.
//!
//! Fingerprints are computed per *fragment prefix* — the basic graph
//! pattern alone, BGP + WHERE filters, and each additional post-WHERE
//! stage — matching the checkpoints at which the engine snapshots
//! intermediate solutions. Post-WHERE stages are sequential (not
//! commutative) and keep their order.
//!
//! # Without intermediate strings
//!
//! A prepared-query cache miss canonicalises every checkpoint prefix, so
//! the work is kept off the heap. Each call lowers its fragment once:
//! variables are interned to dense ids, ground terms are borrowed from the
//! AST, and commuting `&&` / `||` are flattened. Colors are a `Vec<u64>`
//! indexed by id, rendered to hex once per pass. A pass re-sorts each
//! commuting operand list by keys rendered once per operand into one
//! reused buffer, and hashes each atom by running FNV-1a over its
//! rendering in that same buffer. The final text is the one string built,
//! then hashed.
//!
//! The bytes are those of the plain definition above — reuse keys in a
//! shared cache are built from the fingerprints, so they must not move:
//! every rendering has the same grammar (`P(s p o)`, `?{color:016x}`,
//! `(a op b)`, `and(…)`, …); each operand list is stable-sorted from its
//! written order, flattened depth-first, which orders ties exactly as a
//! stable sort of the nested lists does; and occurrence sums commute, so
//! patterns and conjuncts are sorted only for the final naming. A digest
//! over some 2 500 queries in `tests/proptest_iql.rs`, recorded when each
//! atom was still rendered to its own string, pins this.

use super::ast::{CmpOpAst, ExprAst, Query, StageAst, TermAst};
use ids_simrt::rng::{fnv1a, hash_combine};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Which prefix of the query a fingerprint covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FragmentSpec {
    /// The basic graph pattern only (scans + joins).
    Bgp,
    /// BGP plus the WHERE-block filters.
    Where,
    /// BGP + WHERE + the first `n` post-WHERE stages.
    Stages(usize),
}

/// A canonicalized query fragment: normalized text, its fingerprint, and
/// the variable rename map needed to translate cached solution schemas.
#[derive(Debug, Clone, PartialEq)]
pub struct CanonicalFragment {
    /// The normalized rendering (α-renamed, commutative parts sorted).
    pub text: String,
    /// Stable 64-bit hash of `text`.
    pub fingerprint: u64,
    /// Original variable name → canonical name (`c0`, `c1`, …), covering
    /// every variable in scope for this fragment.
    pub rename: BTreeMap<String, String>,
}

impl CanonicalFragment {
    /// Canonical name for an original variable, if it is in this
    /// fragment's scope.
    pub fn canonical(&self, var: &str) -> Option<&str> {
        self.rename.get(var).map(String::as_str)
    }

    /// Inverse lookup: original name for a canonical variable.
    pub fn original(&self, canonical: &str) -> Option<&str> {
        self.rename.iter().find(|(_, c)| c.as_str() == canonical).map(|(o, _)| o.as_str())
    }
}

/// Canonicalize a prefix of `q` per `spec`. `Stages(n)` is clamped to the
/// number of stages present.
pub fn fragment(q: &Query, spec: FragmentSpec) -> CanonicalFragment {
    let (with_filters, n_stages) = match spec {
        FragmentSpec::Bgp => (false, 0),
        FragmentSpec::Where => (true, 0),
        FragmentSpec::Stages(n) => (true, n.min(q.stages.len())),
    };
    canonicalize(q, with_filters, n_stages, false)
}

/// Canonicalize the whole query, including SELECT / DISTINCT / ORDER BY /
/// LIMIT. This is the identity of a *complete* request (used for full
/// result reuse and duplicate detection), whereas [`fragment`] identifies
/// execution prefixes.
pub fn canonical_query(q: &Query) -> CanonicalFragment {
    canonicalize(q, true, q.stages.len(), true)
}

/// Fingerprints for every checkpoint prefix of `q`, cheapest scope first:
/// `[Bgp, Where, Stages(1), …, Stages(len)]`.
pub fn checkpoint_fragments(q: &Query) -> Vec<(FragmentSpec, CanonicalFragment)> {
    let mut out = Vec::with_capacity(q.stages.len() + 2);
    out.push((FragmentSpec::Bgp, fragment(q, FragmentSpec::Bgp)));
    out.push((FragmentSpec::Where, fragment(q, FragmentSpec::Where)));
    for n in 1..=q.stages.len() {
        out.push((FragmentSpec::Stages(n), fragment(q, FragmentSpec::Stages(n))));
    }
    out
}

// ---------------------------------------------------------------------------
// Internals
// ---------------------------------------------------------------------------

/// A variable, by its dense id within one canonicalisation.
type Var = usize;

/// One node of a lowered expression or triple-pattern position.
enum Node<'q> {
    Var(Var),
    Iri(&'q str),
    Str(&'q str),
    Int(i64),
    Float(f64),
    Cmp(CmpOpAst, Box<[Node<'q>; 2]>),
    Not(Box<Node<'q>>),
    Call(&'q str, Vec<Node<'q>>),
    /// `and(…)` if `and`, else `or(…)`, rendered and visited in `order`.
    /// Where the operands commute, nested same-kind junctions are
    /// flattened into `operands` (depth-first, in written order) and
    /// `order` is re-sorted each pass; in APPLY arguments it stays the
    /// written order.
    Junction {
        and: bool,
        operands: Vec<Node<'q>>,
        order: Vec<usize>,
    },
}

/// A post-WHERE stage, lowered.
enum Stage<'q> {
    Apply { udf: &'q str, args: Vec<Node<'q>>, bind: Var },
    Filter(Node<'q>),
}

/// How variables render: by refinement color (sorting and hashing) or by
/// canonical name (the final text).
#[derive(Clone, Copy)]
enum View<'a> {
    /// Every in-scope variable's color as 16 hex digits, variable `v` at
    /// `16 * v` (rendered once per pass, copied into every atom). Only the
    /// fragment's atoms render this way, and their variables are the
    /// in-scope ones.
    Colors(&'a str),
    Names(&'a [String]),
}

impl View<'_> {
    fn var(self, v: Var, out: &mut String) {
        out.push('?');
        match self {
            View::Colors(hex) => out.push_str(&hex[16 * v..16 * (v + 1)]),
            View::Names(names) => out.push_str(&names[v]),
        }
    }
}

/// `{:016x}`, without the formatting machinery.
fn push_hex(x: u64, out: &mut String) {
    let digits: [u8; 16] =
        std::array::from_fn(|i| b"0123456789abcdef"[(x >> (60 - 4 * i)) as usize & 0xf]);
    // ASCII digits: always valid UTF-8.
    out.push_str(std::str::from_utf8(&digits).unwrap_or_default());
}

fn op_str(op: CmpOpAst) -> &'static str {
    match op {
        CmpOpAst::Lt => "<",
        CmpOpAst::Le => "<=",
        CmpOpAst::Gt => ">",
        CmpOpAst::Ge => ">=",
        CmpOpAst::Eq => "=",
        CmpOpAst::Ne => "!=",
    }
}

fn render(n: &Node<'_>, view: View<'_>, out: &mut String) {
    match n {
        Node::Var(v) => view.var(*v, out),
        Node::Iri(i) => {
            out.push('<');
            out.push_str(i);
            out.push('>');
        }
        Node::Str(s) => {
            let _ = write!(out, "{s:?}");
        }
        Node::Int(i) => {
            let _ = write!(out, "i{i}");
        }
        // Bit-exact float identity: 1.0 and 1.00 agree, 0.9 and 0.90001
        // never do.
        Node::Float(f) => {
            out.push('f');
            push_hex(f.to_bits(), out);
        }
        Node::Cmp(op, ab) => {
            out.push('(');
            render(&ab[0], view, out);
            out.push(' ');
            out.push_str(op_str(*op));
            out.push(' ');
            render(&ab[1], view, out);
            out.push(')');
        }
        Node::Not(c) => {
            out.push_str("not(");
            render(c, view, out);
            out.push(')');
        }
        Node::Call(name, args) => {
            out.push_str(name);
            render_list(args.iter(), view, out);
        }
        Node::Junction { and, operands, order } => {
            out.push_str(if *and { "and" } else { "or" });
            render_list(order.iter().map(|&i| &operands[i]), view, out);
        }
    }
}

/// `(a,b,…)`.
fn render_list<'n, 'q: 'n>(
    nodes: impl Iterator<Item = &'n Node<'q>>,
    view: View<'_>,
    out: &mut String,
) {
    out.push('(');
    for (i, n) in nodes.enumerate() {
        if i > 0 {
            out.push(',');
        }
        render(n, view, out);
    }
    out.push(')');
}

fn render_pattern(p: &[Node<'_>; 3], view: View<'_>, out: &mut String) {
    out.push_str("P(");
    render(&p[0], view, out);
    out.push(' ');
    render(&p[1], view, out);
    out.push(' ');
    render(&p[2], view, out);
    out.push(')');
}

/// Every variable occurrence, in rendering order.
fn visit_vars(n: &Node<'_>, f: &mut impl FnMut(Var)) {
    match n {
        Node::Var(v) => f(*v),
        Node::Iri(_) | Node::Str(_) | Node::Int(_) | Node::Float(_) => {}
        Node::Cmp(_, ab) => ab.iter().for_each(|c| visit_vars(c, f)),
        Node::Not(c) => visit_vars(c, f),
        Node::Call(_, args) => args.iter().for_each(|a| visit_vars(a, f)),
        Node::Junction { operands, order, .. } => {
            order.iter().for_each(|&i| visit_vars(&operands[i], f))
        }
    }
}

impl Stage<'_> {
    /// `APPLY udf(args)` or `STAGE-FILTER e`: what the stage hashes as, and
    /// its text line without ` AS ?v`.
    fn render_head(&self, view: View<'_>, out: &mut String) {
        match self {
            Stage::Apply { udf, args, .. } => {
                out.push_str("APPLY ");
                out.push_str(udf);
                render_list(args.iter(), view, out);
            }
            Stage::Filter(e) => {
                out.push_str("STAGE-FILTER ");
                render(e, view, out);
            }
        }
    }

    /// Occurrences in the stage's arguments or expression (not the bound
    /// variable).
    fn visit_args(&self, f: &mut impl FnMut(Var)) {
        match self {
            Stage::Apply { args, .. } => args.iter().for_each(|a| visit_vars(a, f)),
            Stage::Filter(e) => visit_vars(e, f),
        }
    }
}

/// The one reused render buffer: sort keys, then each atom's hash input,
/// and last the canonical text.
struct Scratch {
    text: String,
    spans: Vec<(usize, usize)>,
}

impl Scratch {
    /// Reset `order` to `0..n` and stable-sort it by each item's rendering:
    /// ties keep input order.
    fn sort(
        &mut self,
        order: &mut Vec<usize>,
        n: usize,
        mut render: impl FnMut(usize, &mut String),
    ) {
        order.clear();
        order.extend(0..n);
        if n < 2 {
            return;
        }
        self.text.clear();
        self.spans.clear();
        for i in 0..n {
            let start = self.text.len();
            render(i, &mut self.text);
            self.spans.push((start, self.text.len()));
        }
        let key = |i: usize| &self.text[self.spans[i].0..self.spans[i].1];
        order.sort_by(|&a, &b| key(a).cmp(key(b)));
    }
}

/// Re-sort every commuting junction under `colors`, innermost first (an
/// operand's key is its rendering with its own operands sorted).
fn sort_operands(n: &mut Node<'_>, colors: &str, scratch: &mut Scratch) {
    match n {
        Node::Var(_) | Node::Iri(_) | Node::Str(_) | Node::Int(_) | Node::Float(_) => {}
        Node::Cmp(_, ab) => ab.iter_mut().for_each(|c| sort_operands(c, colors, scratch)),
        Node::Not(c) => sort_operands(c, colors, scratch),
        Node::Call(_, args) => args.iter_mut().for_each(|a| sort_operands(a, colors, scratch)),
        Node::Junction { operands, order, .. } => {
            operands.iter_mut().for_each(|o| sort_operands(o, colors, scratch));
            let view = View::Colors(colors);
            scratch.sort(order, operands.len(), |i, out| render(&operands[i], view, out));
        }
    }
}

/// Interns variable names to dense ids. Queries name a handful of
/// variables, so a linear search beats hashing.
#[derive(Default)]
struct Interner<'q>(Vec<&'q str>);

impl<'q> Interner<'q> {
    fn var(&mut self, name: &'q str) -> Var {
        self.0.iter().position(|&v| v == name).unwrap_or_else(|| {
            self.0.push(name);
            self.0.len() - 1
        })
    }

    fn term(&mut self, t: &'q TermAst) -> Node<'q> {
        match t {
            TermAst::Var(v) => Node::Var(self.var(v)),
            TermAst::Iri(i) => Node::Iri(i),
            TermAst::Str(s) => Node::Str(s),
            TermAst::Int(i) => Node::Int(*i),
            TermAst::Float(f) => Node::Float(*f),
        }
    }

    /// Lower `e`; `commutes` flattens nested `&&` / `||` (they are sorted
    /// each pass), otherwise the written tree is kept.
    fn expr(&mut self, e: &'q ExprAst, commutes: bool) -> Node<'q> {
        match e {
            ExprAst::Term(t) => self.term(t),
            ExprAst::Cmp(op, a, b) => {
                Node::Cmp(*op, Box::new([self.expr(a, commutes), self.expr(b, commutes)]))
            }
            ExprAst::Not(c) => Node::Not(Box::new(self.expr(c, commutes))),
            ExprAst::Call { name, args } => {
                Node::Call(name, args.iter().map(|a| self.expr(a, commutes)).collect())
            }
            ExprAst::And(cs) | ExprAst::Or(cs) => {
                let and = matches!(e, ExprAst::And(_));
                let mut operands = Vec::with_capacity(cs.len());
                self.operands(cs, and, commutes, &mut operands);
                let order = (0..operands.len()).collect();
                Node::Junction { and, operands, order }
            }
        }
    }

    /// Lower the operands of an `&&` (`and`) or `||` into `out`, inlining
    /// directly nested ones of the same kind where they commute.
    fn operands(&mut self, cs: &'q [ExprAst], and: bool, commutes: bool, out: &mut Vec<Node<'q>>) {
        for c in cs {
            match c {
                ExprAst::And(inner) if commutes && and => self.operands(inner, and, commutes, out),
                ExprAst::Or(inner) if commutes && !and => self.operands(inner, and, commutes, out),
                _ => out.push(self.expr(c, commutes)),
            }
        }
    }
}

/// A fragment lowered once per canonicalisation.
struct Fragment<'q> {
    /// Interned names: the first `scope` occur in the fragment's patterns,
    /// filters and stages; any after them only in SELECT / ORDER BY.
    vars: Vec<&'q str>,
    scope: usize,
    patterns: Vec<[Node<'q>; 3]>,
    /// The WHERE filters as one conjunct list (the planner treats several
    /// FILTER(...) clauses and `&&` alike).
    conjuncts: Vec<Node<'q>>,
    stages: Vec<Stage<'q>>,
    /// Positional SELECT list and ORDER BY; empty unless full-query.
    select: Vec<Var>,
    order_by: Option<(Var, bool)>,
}

impl<'q> Fragment<'q> {
    fn lower(q: &'q Query, with_filters: bool, n_stages: usize, full: bool) -> Self {
        let mut vars = Interner::default();
        let patterns: Vec<[Node<'q>; 3]> = q
            .patterns
            .iter()
            .map(|p| [vars.term(&p.s), vars.term(&p.p), vars.term(&p.o)])
            .collect();
        let mut conjuncts = Vec::new();
        if with_filters {
            vars.operands(&q.filters, true, true, &mut conjuncts);
        }
        let stages: Vec<Stage<'q>> = q.stages[..n_stages]
            .iter()
            .map(|s| match s {
                // APPLY arguments are positional and rendered as written.
                StageAst::Apply(a) => Stage::Apply {
                    udf: &a.udf,
                    args: a.args.iter().map(|e| vars.expr(e, false)).collect(),
                    bind: vars.var(&a.bind_as),
                },
                StageAst::Filter(e) => Stage::Filter(vars.expr(e, true)),
            })
            .collect();
        let scope = vars.0.len();
        let select = if full { q.select.iter().map(|v| vars.var(v)).collect() } else { Vec::new() };
        let order_by =
            q.order_by.as_ref().filter(|_| full).map(|o| (vars.var(&o.var), o.descending));
        Fragment { vars: vars.0, scope, patterns, conjuncts, stages, select, order_by }
    }

    fn sort_operands(&mut self, colors: &str, scratch: &mut Scratch) {
        for c in &mut self.conjuncts {
            sort_operands(c, colors, scratch);
        }
        for s in &mut self.stages {
            if let Stage::Filter(e) = s {
                sort_operands(e, colors, scratch);
            }
        }
    }

    /// One refinement round's occurrence sums: each occurrence adds
    /// `hash_combine(atom hash, slot)` to its variable's sum in `acc`
    /// (in-scope variables only: `acc` has `scope` entries).
    fn occurrence_sums(&self, colors: &str, buf: &mut String, acc: &mut [u64]) {
        let view = View::Colors(colors);
        let mut add = |v: Var, h: u64| {
            if let Some(a) = acc.get_mut(v) {
                *a = a.wrapping_add(h);
            }
        };
        let mut hash = |render: &dyn Fn(&mut String)| {
            buf.clear();
            render(buf);
            fnv1a(buf.as_bytes())
        };
        for p in &self.patterns {
            let r = hash(&|out| render_pattern(p, view, out));
            for (slot, t) in p.iter().enumerate() {
                if let Node::Var(v) = t {
                    add(*v, hash_combine(r, slot as u64));
                }
            }
        }
        for c in &self.conjuncts {
            let r = hash(&|out| render(c, view, out));
            let mut slot: u64 = 0;
            visit_vars(c, &mut |v| {
                add(v, hash_combine(r, slot));
                slot += 1;
            });
        }
        for (i, s) in self.stages.iter().enumerate() {
            // Stages are sequential: the stage index is part of the context.
            let r = hash_combine(hash(&|out| s.render_head(view, out)), i as u64);
            let mut slot: u64 = 0;
            s.visit_args(&mut |v| {
                add(v, hash_combine(r, slot));
                slot += 1;
            });
            if let Stage::Apply { bind, .. } = s {
                add(*bind, hash_combine(r, u64::MAX));
            }
        }
        let r = fnv1a(b"SELECT");
        for (i, &v) in self.select.iter().enumerate() {
            add(v, hash_combine(r, i as u64));
        }
        if let Some((v, descending)) = self.order_by {
            add(v, hash_combine(fnv1a(b"ORDERBY"), u64::from(descending)));
        }
    }
}

/// Rounds of color refinement. Two suffice for every query shape the
/// planner produces; three adds margin for adversarial symmetric BGPs.
const REFINE_ROUNDS: usize = 3;

fn canonicalize(q: &Query, with_filters: bool, n_stages: usize, full: bool) -> CanonicalFragment {
    let mut frag = Fragment::lower(q, with_filters, n_stages, full);
    // Sized for about a line of text per atom: one allocation, later
    // handed on as the canonical text.
    let atoms = frag.patterns.len() + frag.conjuncts.len() + frag.stages.len();
    let mut scratch = Scratch { text: String::with_capacity(64 * atoms + 64), spans: Vec::new() };

    // Refine: a variable's next color hashes its occurrence structure
    // under the current coloring. Each occurrence contributes
    // `hash_combine(atom-render-hash, slot-within-atom)`, and occurrence
    // contributions are *summed* (commutative), so the result is invariant
    // to the input order of patterns and conjuncts — only the structure a
    // variable sits in matters. α-equivalent queries therefore refine to
    // identical colorings, and the sort below orders their atoms
    // identically. For full-query canonicalization the SELECT list and
    // ORDER BY also contribute (they are positional), separating variables
    // that only the projection distinguishes.
    let mut colors = vec![1u64; frag.scope];
    let mut acc = vec![0u64; frag.scope];
    let mut hex = String::with_capacity(16 * frag.scope);
    let render_colors = |colors: &[u64], hex: &mut String| {
        hex.clear();
        colors.iter().for_each(|&c| push_hex(c, hex));
    };
    for round in 0..REFINE_ROUNDS {
        render_colors(&colors, &mut hex);
        frag.sort_operands(&hex, &mut scratch);
        acc.fill(0);
        frag.occurrence_sums(&hex, &mut scratch.text, &mut acc);
        for (c, a) in colors.iter_mut().zip(&acc) {
            *c = hash_combine(hash_combine(*c, round as u64 + 1), *a);
        }
    }

    // Final ordering under converged colors, then first-occurrence naming.
    render_colors(&colors, &mut hex);
    frag.sort_operands(&hex, &mut scratch);
    let view = View::Colors(&hex);
    let (mut pattern_order, mut conjunct_order) = (Vec::new(), Vec::new());
    scratch.sort(&mut pattern_order, frag.patterns.len(), |i, out| {
        render_pattern(&frag.patterns[i], view, out)
    });
    scratch.sort(&mut conjunct_order, frag.conjuncts.len(), |i, out| {
        render(&frag.conjuncts[i], view, out)
    });
    let mut names = vec![String::new(); frag.vars.len()];
    let mut next = 0;
    let mut name = |v: Var| {
        if names[v].is_empty() {
            names[v] = format!("c{next}");
            next += 1;
        }
    };
    for &i in &pattern_order {
        frag.patterns[i].iter().for_each(|t| visit_vars(t, &mut name));
    }
    for &i in &conjunct_order {
        visit_vars(&frag.conjuncts[i], &mut name);
    }
    for s in &frag.stages {
        s.visit_args(&mut name);
        if let Stage::Apply { bind, .. } = s {
            name(*bind);
        }
    }
    frag.select.iter().for_each(|&v| name(v));
    if let Some((v, _)) = frag.order_by {
        name(v);
    }
    // Every interned variable occurs in what was just visited.
    debug_assert_eq!(next, frag.vars.len());

    let view = View::Names(&names);
    // The scratch buffer, already grown to about the text's size.
    let mut text = std::mem::take(&mut scratch.text);
    text.clear();
    text.push_str("ids-canon-v1\n");
    for &i in &pattern_order {
        render_pattern(&frag.patterns[i], view, &mut text);
        text.push('\n');
    }
    for &i in &conjunct_order {
        text.push_str("FILTER ");
        render(&frag.conjuncts[i], view, &mut text);
        text.push('\n');
    }
    for s in &frag.stages {
        s.render_head(view, &mut text);
        if let Stage::Apply { bind, .. } = s {
            text.push_str(" AS ");
            view.var(*bind, &mut text);
        }
        text.push('\n');
    }
    if full {
        if q.distinct {
            text.push_str("DISTINCT\n");
        }
        if frag.select.is_empty() {
            text.push_str("SELECT *\n");
        } else {
            text.push_str("SELECT");
            for &v in &frag.select {
                text.push(' ');
                view.var(v, &mut text);
            }
            text.push('\n');
        }
        if let Some((v, descending)) = frag.order_by {
            text.push_str("ORDER BY ");
            view.var(v, &mut text);
            text.push_str(if descending { " DESC\n" } else { " ASC\n" });
        }
        if let Some(l) = q.limit {
            let _ = writeln!(text, "LIMIT {l}");
        }
    }

    let fingerprint = hash_combine(fnv1a(text.as_bytes()), text.len() as u64);
    let rename = frag.vars.iter().map(|v| v.to_string()).zip(names).collect();
    CanonicalFragment { text, fingerprint, rename }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::iql::parse_query;

    fn q(text: &str) -> Query {
        parse_query(text).expect("test query parses")
    }

    const BASE: &str = "SELECT ?compound ?energy WHERE { \
        ?protein <rdf:type> <up:Protein> . \
        ?compound <chembl:inhibits> ?protein . \
        ?compound <chembl:smiles> ?smiles . \
        FILTER(sw_similarity(?protein) >= 0.9) \
        FILTER(pic50(?compound, ?protein) > 6.0) } \
        APPLY vina_docking(?smiles) AS ?energy \
        ORDER BY ?energy LIMIT 10";

    const RENAMED: &str = "SELECT ?c ?e WHERE { \
        ?c <chembl:smiles> ?s . \
        ?c <chembl:inhibits> ?p . \
        ?p <rdf:type> <up:Protein> . \
        FILTER(pic50(?c, ?p) > 6.0) \
        FILTER(sw_similarity(?p) >= 0.9) } \
        APPLY vina_docking(?s) AS ?e \
        ORDER BY ?e LIMIT 10";

    #[test]
    fn alpha_equivalent_queries_fingerprint_identically() {
        let a = canonical_query(&q(BASE));
        let b = canonical_query(&q(RENAMED));
        assert_eq!(a.text, b.text);
        assert_eq!(a.fingerprint, b.fingerprint);
    }

    #[test]
    fn every_checkpoint_prefix_matches_too() {
        let qa = q(BASE);
        let qb = q(RENAMED);
        let fa = checkpoint_fragments(&qa);
        let fb = checkpoint_fragments(&qb);
        assert_eq!(fa.len(), fb.len());
        for ((sa, a), (sb, b)) in fa.iter().zip(&fb) {
            assert_eq!(sa, sb);
            assert_eq!(a.fingerprint, b.fingerprint, "prefix {sa:?}:\n{}\nvs\n{}", a.text, b.text);
        }
    }

    #[test]
    fn different_constants_fingerprint_differently() {
        let a = canonical_query(&q(BASE));
        let b = canonical_query(&q(&BASE.replace("0.9", "0.8")));
        assert_ne!(a.fingerprint, b.fingerprint);
    }

    #[test]
    fn bgp_prefix_shared_across_different_filters() {
        let a = fragment(&q(BASE), FragmentSpec::Bgp);
        let b = fragment(&q(&BASE.replace("0.9", "0.8")), FragmentSpec::Bgp);
        assert_eq!(a.fingerprint, b.fingerprint);
        let aw = fragment(&q(BASE), FragmentSpec::Where);
        let bw = fragment(&q(&BASE.replace("0.9", "0.8")), FragmentSpec::Where);
        assert_ne!(aw.fingerprint, bw.fingerprint);
    }

    #[test]
    fn rename_maps_align_on_shared_fragments() {
        let a = fragment(&q(BASE), FragmentSpec::Where);
        let b = fragment(&q(RENAMED), FragmentSpec::Where);
        // ?compound in BASE and ?c in RENAMED are the same role — they
        // must map to the same canonical name.
        assert_eq!(a.canonical("compound"), b.canonical("c"));
        assert_eq!(a.canonical("protein"), b.canonical("p"));
        assert_eq!(a.canonical("smiles"), b.canonical("s"));
        assert_eq!(b.original(a.canonical("compound").unwrap()), Some("c"));
    }

    #[test]
    fn select_order_is_semantic() {
        let a = canonical_query(&q("SELECT ?a ?b WHERE { ?a <p:x> ?b . }"));
        let b = canonical_query(&q("SELECT ?b ?a WHERE { ?a <p:x> ?b . }"));
        assert_ne!(a.fingerprint, b.fingerprint);
    }

    #[test]
    fn stage_order_is_semantic() {
        let a = canonical_query(&q("SELECT ?a WHERE { ?a <p:x> ?b . } \
            APPLY m1(?b) AS ?u APPLY m2(?b) AS ?v"));
        let b = canonical_query(&q("SELECT ?a WHERE { ?a <p:x> ?b . } \
            APPLY m2(?b) AS ?v APPLY m1(?b) AS ?u"));
        assert_ne!(a.fingerprint, b.fingerprint);
    }

    #[test]
    fn symmetric_patterns_stay_stable_under_swap() {
        let a = canonical_query(&q("SELECT ?x WHERE { ?x <p:e> ?y . ?y <p:e> ?x . }"));
        let b = canonical_query(&q("SELECT ?u WHERE { ?v <p:e> ?u . ?u <p:e> ?v . }"));
        assert_eq!(a.fingerprint, b.fingerprint);
    }
}
