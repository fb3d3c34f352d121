//! IQL abstract syntax.

/// A term position in a triple pattern: a variable or a ground term.
#[derive(Debug, Clone, PartialEq)]
pub enum TermAst {
    Var(String),
    Iri(String),
    Str(String),
    Int(i64),
    Float(f64),
}

impl TermAst {
    /// Variable name if this is a variable.
    pub fn as_var(&self) -> Option<&str> {
        match self {
            TermAst::Var(v) => Some(v),
            _ => None,
        }
    }
}

/// A triple pattern in the WHERE clause.
#[derive(Debug, Clone, PartialEq)]
pub struct TriplePatternAst {
    pub s: TermAst,
    pub p: TermAst,
    pub o: TermAst,
}

impl TriplePatternAst {
    /// Variables bound by this pattern, in S-P-O order.
    pub fn variables(&self) -> Vec<&str> {
        [&self.s, &self.p, &self.o].into_iter().filter_map(TermAst::as_var).collect()
    }
}

/// A filter expression (surface form; lowered to `ids_udf::Expr` by the
/// planner).
#[derive(Debug, Clone, PartialEq)]
pub enum ExprAst {
    Term(TermAst),
    Cmp(CmpOpAst, Box<ExprAst>, Box<ExprAst>),
    And(Vec<ExprAst>),
    Or(Vec<ExprAst>),
    Not(Box<ExprAst>),
    Call { name: String, args: Vec<ExprAst> },
}

/// Comparison operators in the surface syntax.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOpAst {
    Lt,
    Le,
    Gt,
    Ge,
    Eq,
    Ne,
}

/// An `APPLY udf(args…) AS ?var` stage.
#[derive(Debug, Clone, PartialEq)]
pub struct ApplyAst {
    pub udf: String,
    pub args: Vec<ExprAst>,
    pub bind_as: String,
}

/// A post-WHERE stage: either a model application or a filter over the
/// (possibly APPLY-extended) solutions.
#[derive(Debug, Clone, PartialEq)]
pub enum StageAst {
    Apply(ApplyAst),
    Filter(ExprAst),
}

/// Sort order for `ORDER BY`.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderByAst {
    pub var: String,
    pub descending: bool,
}

/// A parsed IQL query.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    /// Deduplicate result rows (`SELECT DISTINCT`).
    pub distinct: bool,
    /// Projected variables (empty = project all).
    pub select: Vec<String>,
    /// Basic graph pattern.
    pub patterns: Vec<TriplePatternAst>,
    /// Filters inside the WHERE block.
    pub filters: Vec<ExprAst>,
    /// Post-WHERE stages in order.
    pub stages: Vec<StageAst>,
    /// Result ordering (applied before LIMIT — top-k semantics).
    pub order_by: Option<OrderByAst>,
    /// Row limit.
    pub limit: Option<usize>,
}
