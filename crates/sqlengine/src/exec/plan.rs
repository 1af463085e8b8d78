//! Compile: one walk of a [`Query`] against the catalog produces the
//! resolved plan the run-time operators consume and EXPLAIN renders.
//!
//! Everything that does not depend on a row is decided here, once per
//! statement: every column reference becomes a `(scope depth, binding,
//! ordinal)`; each SELECT block's WHERE is split into conjuncts and each
//! conjunct pushed into the one scan it concerns or left as a residual
//! filter; each scan gets its index probe, each join its method and key
//! expressions; the projection its output schema, aggregates their slots,
//! ORDER BY its key positions. A `WITH RECURSIVE` compiles its terms once,
//! not once per round. A subquery is correlated iff it holds a reference to a
//! scope outside itself — a static fact. Views compile inline. The
//! [`ExecConfig`] flags are read here and nowhere else.
//!
//! The one thing the compiler reports earlier than the AST walker it
//! replaced: an unknown or ambiguous column is an error even when no row
//! would have reached it. Every other failure a statement can meet (type
//! mismatch, arity of a set operation, a scalar subquery with two rows, …)
//! stays where it was, at run time, in the same order.
//!
//! A plan owns everything it holds and borrows nothing, so it can outlive
//! the statement it was compiled for ([`crate::template`] keeps one per
//! template): a literal is a [`Value`] of its own; a template's `$n` is
//! `Const::Param`, read from the values of each run; a base table is a
//! slot of [`Plan::tables`], looked up by name in the catalog of each run
//! (DML replaces a table's `Arc`, not its name, schema or indexes). What a
//! plan may rely on of the catalog — tables, columns, indexes, views,
//! functions — is the catalog's [`shape`](Catalog::shape). A plan runs for
//! any values of its template unless one of its decisions read the values
//! it was compiled with: an ORDER BY ordinal, a projected `$n`'s type, an
//! aggregate named or typed by one, the `-0.0`/`0` exactness of a probe on a
//! FLOAT column, an error that quotes one. The compiler then marks it
//! [`bound`](Plan::is_bound) to those values.

use std::borrow::Cow;
use std::ops::{Deref, Range};
use std::sync::Arc;

use crate::ast::{
    is_aggregate_name, BinOp, Cte, Expr, JoinKind, OrderItem, Query, Select, SelectItem, SetExpr,
    SetOp, TableFactor,
};
use crate::catalog::{lower, Catalog};
use crate::error::{Error, Result};
use crate::exec::recursion::{body_references, union_chain_is_all};
use crate::exec::{ExecConfig, Rt};
use crate::functions::ScalarFn;
use crate::schema::{Column, Schema};
use crate::storage::Table;
use crate::template;
use crate::value::{DataType, Value};

/// A value a plan reads that no row holds: written in the statement, or a
/// template's `$n`, bound when the plan runs.
#[derive(Debug, Clone)]
pub(crate) enum Const {
    Literal(Value),
    /// `$i+1`: the run's `params[i]`.
    Param(usize),
}

impl Const {
    pub fn get<'v>(&'v self, params: &'v [Value]) -> &'v Value {
        match self {
            Const::Literal(v) => v,
            Const::Param(i) => &params[*i],
        }
    }
}

/// A compiled expression; a column is a position, never a name.
pub(crate) enum PExpr {
    Const(Const),
    /// `depth` scopes out from the SELECT being evaluated (0 = its own FROM),
    /// then the binding's position in that FROM and the column's in its row.
    Column {
        depth: usize,
        binding: usize,
        ordinal: usize,
    },
    /// An operator over sub-expressions, in the order they were written.
    Op {
        op: Op,
        args: Vec<PExpr>,
    },
    /// Aggregate slot of the enclosing grouped SELECT.
    Agg(usize),
    /// A failure that is only one if a row reaches it (an aggregate outside a
    /// grouped context, `f(*)`).
    Fail(Error),
}

/// What [`PExpr::Op`] applies to its `args` (given per variant).
pub(crate) enum Op {
    /// `[left, right]`
    Binary(BinOp),
    /// `[operand]`
    Not,
    Negate,
    IsNull {
        negated: bool,
    },
    Cast(DataType),
    /// `[needle, item…]`
    InList {
        negated: bool,
    },
    /// `[value, low, high]`
    Between {
        negated: bool,
    },
    /// `[value, pattern]`
    Like {
        negated: bool,
    },
    /// `[argument…]` of a scalar function, looked up once; an unknown name
    /// fails when called, after its arguments were evaluated, as it always
    /// did.
    Call {
        name: String,
        func: Option<ScalarFn>,
    },
    /// `[condition, result, …]`, then the ELSE result if there is one.
    Case,
    /// `[]`
    Exists {
        sub: Box<SubPlan>,
        negated: bool,
    },
    Scalar(Box<SubPlan>),
    /// `[needle]`
    InSubquery {
        sub: Box<SubPlan>,
        negated: bool,
    },
}

/// A subquery in an expression.
pub(crate) struct SubPlan {
    pub query: QueryPlan,
    /// Holds a column reference to a scope outside itself.
    pub correlated: bool,
    /// `ExecConfig::subquery_cache`: an uncorrelated result is kept in `slot`
    /// and evaluated once per cache scope.
    pub cache: bool,
    pub slot: usize,
    /// Correlated EXISTS in the decorrelatable shape (and
    /// `semijoin_decorrelation` on): the residual conjuncts of the inner
    /// SELECT that are `inner = outer` equalities, as `(position, inner side
    /// is the left operand)`. The run builds the hashed key set from the rest
    /// of the SELECT once and probes it per row.
    pub semi: Option<Vec<(usize, bool)>>,
}

/// A compiled statement (see the module docs); EXPLAIN renders it.
pub struct Plan {
    pub(crate) query: QueryPlan,
    /// Subquery cache slots the run must provide.
    pub(crate) slots: usize,
    /// The base tables the plan reads, by catalog name: [`Source::Table`]
    /// names a position here.
    pub(crate) tables: Vec<String>,
    /// A decision read a value the plan was compiled with.
    bound: bool,
}

impl Plan {
    /// The base tables the plan reads (each once, in the order first met).
    pub fn tables(&self) -> &[String] {
        &self.tables
    }

    /// Whether the plan answers only for the values it was compiled with
    /// (see the module docs).
    pub fn is_bound(&self) -> bool {
        self.bound
    }
}

/// One query: WITH, body, ORDER BY, LIMIT.
pub(crate) struct QueryPlan {
    /// WITH. A query that has one starts every evaluation with the subquery
    /// `slots` compiled inside it empty.
    pub ctes: Vec<CtePlan>,
    pub slots: Range<usize>,
    pub body: SetPlan,
    pub sort: SortKeys,
    /// Number of ORDER BY items written.
    pub order_by: usize,
    pub limit: Option<u64>,
    /// Output schema; narrower than the body's when ORDER BY added hidden
    /// sort columns, which are stripped after sorting.
    pub schema: Arc<Schema>,
}

pub(crate) enum SetPlan {
    Select(Box<SelectPlan>),
    Op {
        op: SetOp,
        all: bool,
        left: Box<SetPlan>,
        right: Box<SetPlan>,
    },
}

impl SetPlan {
    /// Names and types come from the left-most SELECT.
    pub fn schema(&self) -> &Arc<Schema> {
        match self {
            SetPlan::Select(sel) => &sel.schema,
            SetPlan::Op { left, .. } => left.schema(),
        }
    }
}

pub(crate) struct CtePlan {
    pub name: String,
    /// What scans of this CTE look up in the run's CTE environment.
    pub id: usize,
    pub width: usize,
    pub body: CteBody,
}

pub(crate) enum CteBody {
    Plain(QueryPlan),
    /// Semi-naive: the UNION chain's terms in source order, each flagged
    /// recursive (reads the CTE, i.e. the previous round's delta) or seed.
    Recursive {
        terms: Vec<(SetPlan, bool)>,
        dedup: bool,
        limit: usize,
        /// Slots of subqueries in the terms; emptied every round.
        slots: Range<usize>,
    },
}

/// A WHERE conjunct with the text EXPLAIN prints for it.
pub(crate) struct Conjunct {
    pub expr: PExpr,
    /// Printed only for EXPLAIN ([`compile_for_explain`]); empty in a plan
    /// that runs.
    pub text: String,
}

pub(crate) struct SelectPlan {
    pub factors: Vec<Factor>,
    /// Number of views / derived tables among the factors.
    pub subs: usize,
    /// WHERE conjuncts no scan took.
    pub residual: Vec<Conjunct>,
    pub items: Vec<PExpr>,
    /// One column per item (hidden sort columns included).
    pub schema: Arc<Schema>,
    pub group: Option<Group>,
    pub distinct: bool,
}

pub(crate) struct Group {
    pub keys: Vec<PExpr>,
    pub aggs: Vec<Agg>,
    pub having: Option<PExpr>,
}

pub(crate) struct Agg {
    pub func: String,
    pub arg: AggArg,
}

pub(crate) enum AggArg {
    Star,
    Expr(PExpr),
    /// Raised when a group is computed (`SUM(*)`, `COUNT(a, b)`).
    Invalid(Error),
}

/// One FROM binding: where its rows come from, which conjuncts its scan
/// tests, how it joins what precedes it.
pub(crate) struct Factor {
    pub binding: String,
    pub source: Source,
    pub kind: JoinKind,
    /// Starts a FROM item (cross-joined against the items before it).
    pub new_item: bool,
    /// Has an ON clause.
    pub on: bool,
    /// Every ON conjunct reads only this SELECT's own bindings.
    pub on_local: bool,
    /// Pushed-down WHERE conjuncts: they read this binding alone.
    pub filters: Vec<Conjunct>,
    /// Index access for the scan: indexed column and the values to look up.
    pub probe: Option<(usize, Vec<Const>)>,
    pub join: Join,
    /// An all-NULL row of this binding: what a LEFT join pads with, and what
    /// a global aggregate over no rows reads.
    pub nulls: Cow<'static, [Value]>,
}

pub(crate) enum Source {
    /// The plan's base table in this slot of [`Plan::tables`].
    Table(usize),
    Cte {
        id: usize,
        name: String,
    },
    /// View (`name` set) or derived table, materialised when the SELECT
    /// starts, into `slot` of its materialisations.
    Sub {
        plan: Box<QueryPlan>,
        view: Option<String>,
        slot: usize,
    },
}

pub(crate) enum Join {
    /// First factor: nothing to join.
    First,
    /// Probe the table's index on `col` with `key` of each left row.
    Index {
        key: PExpr,
        col: usize,
        residual: Vec<PExpr>,
    },
    /// Scan the factor, then hash it on the `(left, right)` key pairs — or,
    /// when the ON clause has none, loop over it.
    Scanned {
        keys: Vec<(PExpr, PExpr)>,
        residual: Vec<PExpr>,
    },
}

/// ORDER BY as positions in the body's rows with their `DESC` flags — or the
/// error it raises, which a statement meets only after its body ran.
pub(crate) type SortKeys = Option<Result<Vec<(usize, bool)>>>;

/// A schema borrowed from the catalog or shared with the plan node that
/// produces it.
#[derive(Debug, Clone)]
enum SchemaRef<'a> {
    Table(&'a Schema),
    Shared(Arc<Schema>),
}

impl Deref for SchemaRef<'_> {
    type Target = Schema;
    fn deref(&self) -> &Schema {
        match self {
            SchemaRef::Table(s) => s,
            SchemaRef::Shared(s) => s,
        }
    }
}

/// The FROM bindings of one SELECT; `visible` limits resolution to a prefix
/// while an ON clause is compiled.
struct Scope<'a> {
    bindings: Vec<(Cow<'a, str>, SchemaRef<'a>)>,
    visible: usize,
}

pub(crate) struct Compiler<'a> {
    catalog: &'a Catalog,
    config: &'a ExecConfig,
    /// The values a template's [`Expr::Param`]s are bound to.
    params: &'a [Value],
    /// Print each conjunct's text, for EXPLAIN.
    explain: bool,
    /// Innermost last.
    scopes: Vec<Scope<'a>>,
    /// CTEs in scope, innermost last: name, id, schema.
    ctes: Vec<(&'a str, usize, Arc<Schema>)>,
    /// Subqueries being compiled: number of scopes outside, and whether a
    /// reference has reached one of those.
    open_subs: Vec<(usize, bool)>,
    /// The aggregates of the grouped SELECT whose projection / HAVING is being
    /// compiled, under their rendered forms; positions are the slots.
    group: Option<(Vec<String>, Vec<Agg>)>,
    /// Subquery cache slots allocated so far.
    pub(crate) slots: usize,
    /// Base tables met so far, by [`Source::Table`] slot.
    tables: Vec<&'a Table>,
    /// A decision read one of `params` ([`Plan::is_bound`]).
    bound: bool,
    cte_ids: usize,
    view_depth: usize,
}

/// Compile a query for execution; `$n` of a template reads `params[n-1]`
/// ([`Expr::Param`]) when the plan runs, and is decided on exactly as a
/// literal of that value would be — by index probes, ORDER BY ordinals and
/// all — which binds the plan to it where the decision reads it.
pub fn compile(
    catalog: &Catalog,
    config: &ExecConfig,
    query: &Query,
    params: &[Value],
) -> Result<Plan> {
    Compiler {
        params,
        ..Compiler::new(catalog, config)
    }
    .plan(query)
}

/// [`compile`] a statement for EXPLAIN: with its conjuncts' texts.
pub(crate) fn compile_for_explain(
    catalog: &Catalog,
    config: &ExecConfig,
    query: &Query,
) -> Result<Plan> {
    Compiler {
        explain: true,
        ..Compiler::new(catalog, config)
    }
    .plan(query)
}

/// All-NULL rows of up to this many columns are not allocated.
static NULLS: [Value; 32] = [const { Value::Null }; 32];

/// The top-level AND conjuncts of `e`, in order.
pub(crate) fn conjuncts(e: &Expr) -> Vec<&Expr> {
    fn walk<'e>(e: &'e Expr, out: &mut Vec<&'e Expr>) {
        match e {
            Expr::BinaryOp {
                left,
                op: BinOp::And,
                right,
            } => {
                walk(left, out);
                walk(right, out);
            }
            other => out.push(other),
        }
    }
    let mut out = Vec::new();
    walk(e, &mut out);
    out
}

impl PExpr {
    /// The top-level AND operands of a compiled predicate, in order.
    pub(crate) fn conjuncts(&self) -> Vec<&PExpr> {
        match self {
            PExpr::Op {
                op: Op::Binary(BinOp::And),
                args,
            } => args.iter().flat_map(|x| x.conjuncts()).collect(),
            other => vec![other],
        }
    }
}

/// What an expression reads: its column count, how many of those lie in an
/// outer scope, the span of own-scope bindings, and whether it holds a
/// subquery.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Refs {
    pub cols: usize,
    pub outer: usize,
    pub lo: usize,
    pub hi: usize,
    pub sub: bool,
}

impl Refs {
    pub fn of(e: &PExpr) -> Refs {
        let mut r = Refs {
            lo: usize::MAX,
            ..Refs::default()
        };
        r.visit(e);
        r
    }

    fn visit(&mut self, e: &PExpr) {
        match e {
            PExpr::Column { depth, binding, .. } => {
                self.cols += 1;
                if *depth > 0 {
                    self.outer += 1;
                } else {
                    self.lo = self.lo.min(*binding);
                    self.hi = self.hi.max(*binding);
                }
            }
            PExpr::Op { op, args } => {
                self.sub |= matches!(
                    op,
                    Op::Exists { .. } | Op::Scalar(_) | Op::InSubquery { .. }
                );
                args.iter().for_each(|x| self.visit(x));
            }
            PExpr::Const(_) | PExpr::Agg(_) | PExpr::Fail(_) => {}
        }
    }

    /// The span of own-scope bindings the expression reads, if it reads at
    /// least one column and nothing else (no outer scope, no subquery).
    fn own(&self) -> Option<(usize, usize)> {
        (!self.sub && self.cols > 0 && self.outer == 0).then_some((self.lo, self.hi))
    }

    /// Reads binding `k` and no other — what makes a WHERE conjunct a filter
    /// of `k`'s scan, an ON operand the right side of the join that adds `k`.
    pub fn only(&self, k: usize) -> bool {
        self.own() == Some((k, k))
    }

    /// Reads only bindings joined before `k`: the left side of its join.
    pub fn left_of(&self, k: usize) -> bool {
        self.own().is_some_and(|(_, hi)| hi < k)
    }

    /// Reads nothing outside the SELECT's own FROM (literals included).
    fn local(&self) -> bool {
        !self.sub && self.outer == 0
    }

    /// Reads outer scopes only, and at least one column of them.
    fn outer_only(&self) -> bool {
        !self.sub && self.cols > 0 && self.outer == self.cols
    }
}

/// If `e` is `col = value` (either order) or `col IN (values)` over a column
/// of own-scope `binding`, the column position and the values: what an
/// index on that column could look up instead of scanning.
fn probe_operands(e: &PExpr, binding: usize) -> Option<(usize, Vec<&Const>)> {
    let as_col = |x: &PExpr| match x {
        PExpr::Column {
            depth: 0,
            binding: b,
            ordinal,
        } if *b == binding => Some(*ordinal),
        _ => None,
    };
    fn as_const(x: &PExpr) -> Option<&Const> {
        match x {
            PExpr::Const(c) => Some(c),
            _ => None,
        }
    }
    match e {
        PExpr::Op {
            op: Op::Binary(BinOp::Eq),
            args,
        } => [(&args[0], &args[1]), (&args[1], &args[0])]
            .into_iter()
            .find_map(|(c, v)| Some((as_col(c)?, vec![as_const(v)?]))),
        PExpr::Op {
            op: Op::InList { negated: false },
            args,
        } => Some((
            as_col(&args[0])?,
            args[1..].iter().map(as_const).collect::<Option<_>>()?,
        )),
        _ => None,
    }
}

impl<'a> Compiler<'a> {
    pub(crate) fn new(catalog: &'a Catalog, config: &'a ExecConfig) -> Self {
        Compiler {
            catalog,
            config,
            params: &[],
            explain: false,
            scopes: Vec::new(),
            ctes: Vec::new(),
            open_subs: Vec::new(),
            group: None,
            slots: 0,
            tables: Vec::new(),
            bound: false,
            cte_ids: 0,
            view_depth: 0,
        }
    }

    fn plan(mut self, query: &'a Query) -> Result<Plan> {
        let query = self.query(query)?;
        Ok(Plan {
            query,
            slots: self.slots,
            tables: self.tables.iter().map(|t| t.name.clone()).collect(),
            bound: self.bound,
        })
    }

    /// The context to run what was compiled in: no values bound, the base
    /// tables the compiler met (UPDATE / DELETE / INSERT, which compile and
    /// run on one catalog).
    pub(crate) fn rt<'r>(&self, obs: &'r pdm_obs::Recorder) -> Rt<'r>
    where
        'a: 'r,
    {
        Rt::new(obs, self.slots, &[], self.tables.clone())
    }

    /// The one index-driven access path, shared by SELECT scans, UPDATE and
    /// DELETE: the first of `conjuncts` that compares an indexed column of
    /// `table` (own-scope `binding`) with values — `=` or `IN` — for which
    /// the index finds exactly the rows SQL `=` matches. `None` — no such
    /// conjunct, or `index_pushdown` off — means scan the table.
    pub(crate) fn index_probe<'e>(
        &mut self,
        table: &Table,
        binding: usize,
        conjuncts: impl IntoIterator<Item = &'e PExpr>,
    ) -> Option<(usize, Vec<Const>)> {
        if !self.config.index_pushdown {
            return None;
        }
        conjuncts.into_iter().find_map(|c| {
            let (col, keys) =
                probe_operands(c, binding).filter(|(col, _)| table.has_index(*col))?;
            // Index keys compare by `Value::total_cmp`, which — unlike SQL
            // `=` — tells `-0.0` from `0.0`: a zero that may meet a FLOAT is
            // not probed.
            let float_column = table.schema.column(col).dtype == DataType::Float;
            let exact = keys.iter().all(|k| {
                let v = k.get(self.params);
                if matches!(k, Const::Param(_)) && (float_column || !matches!(v, Value::Int(_))) {
                    self.bound = true;
                }
                match v {
                    Value::Float(f) => *f != 0.0,
                    Value::Int(0) => !float_column,
                    _ => true,
                }
            });
            exact.then(|| (col, keys.into_iter().cloned().collect()))
        })
    }

    /// The value `e` is, if it is a literal or a bound parameter — a
    /// decision on which binds the plan to the values.
    fn value_of(&mut self, e: &'a Expr) -> Option<&'a Value> {
        match e {
            Expr::Literal(v) => Some(v),
            Expr::Param(i) => {
                self.bound = true;
                self.params.get(*i)
            }
            _ => None,
        }
    }

    /// [`template::print_bound`]: a print that holds a `$n` binds the plan.
    fn print_bound(&mut self, e: &impl std::fmt::Display) -> String {
        let (print, holes) = template::print_bound(e, self.params);
        self.bound |= holes;
        print
    }

    /// The slot of a base table, given at its first scan.
    fn table_slot(&mut self, table: &'a Table) -> usize {
        match self.tables.iter().position(|t| std::ptr::eq(*t, table)) {
            Some(slot) => slot,
            None => {
                self.tables.push(table);
                self.tables.len() - 1
            }
        }
    }

    /// Make the rows of `table` the scope expressions compile against
    /// (UPDATE / DELETE: predicate and assignments read the row being
    /// written, under the table's name).
    pub(crate) fn bind_table(&mut self, table: &'a Table) {
        self.scopes.push(Scope {
            bindings: vec![(
                Cow::Borrowed(table.name.as_str()),
                SchemaRef::Table(&table.schema),
            )],
            visible: 1,
        });
    }

    // -- names -------------------------------------------------------------

    fn resolve(&mut self, qualifier: Option<&str>, name: &str) -> Result<PExpr> {
        for (depth, scope) in self.scopes.iter().rev().enumerate() {
            let visible = &scope.bindings[..scope.visible];
            let mut found = None;
            match qualifier {
                Some(q) => {
                    if let Some(b) = visible.iter().position(|(n, _)| n.eq_ignore_ascii_case(q)) {
                        found = visible[b].1.index_of(name).map(|o| (b, o));
                    }
                }
                None => {
                    for (b, (_, schema)) in visible.iter().enumerate() {
                        if let Some(o) = schema.index_of(name) {
                            if found.is_some() {
                                return Err(Error::Bind(format!("ambiguous column '{name}'")));
                            }
                            found = Some((b, o));
                        }
                    }
                }
            }
            if let Some((binding, ordinal)) = found {
                let scope_index = self.scopes.len() - 1 - depth;
                for (outside, correlated) in &mut self.open_subs {
                    *correlated |= scope_index < *outside;
                }
                return Ok(PExpr::Column {
                    depth,
                    binding,
                    ordinal,
                });
            }
        }
        let full = match qualifier {
            Some(q) => format!("{q}.{name}"),
            None => name.to_string(),
        };
        Err(Error::Bind(format!("unknown column '{full}'")))
    }

    // -- expressions -------------------------------------------------------

    fn args(&mut self, exprs: impl IntoIterator<Item = &'a Expr>) -> Result<Vec<PExpr>> {
        exprs.into_iter().map(|x| self.expr(x)).collect()
    }

    pub(crate) fn expr(&mut self, e: &'a Expr) -> Result<PExpr> {
        let (op, args) = match e {
            Expr::Literal(v) => return Ok(PExpr::Const(Const::Literal(v.clone()))),
            Expr::Param(i) if *i < self.params.len() => {
                return Ok(PExpr::Const(Const::Param(*i)));
            }
            Expr::Param(_) => return Err(Error::Bind(format!("no value bound to {e}"))),
            Expr::Column { qualifier, name } => return self.resolve(qualifier.as_deref(), name),
            Expr::BinaryOp { left, op, right } => {
                (Op::Binary(*op), self.args([&**left, &**right])?)
            }
            Expr::Not(x) => (Op::Not, self.args([&**x])?),
            Expr::Negate(x) => (Op::Negate, self.args([&**x])?),
            Expr::IsNull { expr, negated } => {
                (Op::IsNull { negated: *negated }, self.args([&**expr])?)
            }
            Expr::Cast { expr, dtype } => (Op::Cast(*dtype), self.args([&**expr])?),
            Expr::InList {
                expr,
                list,
                negated,
            } => {
                let args = self.args(std::iter::once(&**expr).chain(list))?;
                (Op::InList { negated: *negated }, args)
            }
            Expr::Between {
                expr,
                low,
                high,
                negated,
            } => {
                let args = self.args([&**expr, &**low, &**high])?;
                (Op::Between { negated: *negated }, args)
            }
            Expr::Like {
                expr,
                pattern,
                negated,
            } => {
                let args = self.args([&**expr, &**pattern])?;
                (Op::Like { negated: *negated }, args)
            }
            Expr::InSubquery {
                expr,
                query,
                negated,
            } => {
                let args = self.args([&**expr])?;
                let sub = self.subquery(query, false)?;
                let negated = *negated;
                (Op::InSubquery { sub, negated }, args)
            }
            Expr::Exists { query, negated } => {
                let sub = self.subquery(query, true)?;
                let negated = *negated;
                (Op::Exists { sub, negated }, Vec::new())
            }
            Expr::ScalarSubquery(query) => (Op::Scalar(self.subquery(query, false)?), Vec::new()),
            Expr::Function { name, .. } if is_aggregate_name(name) => {
                return Ok(match self.group.take() {
                    // Every occurrence of the same rendered form shares a
                    // slot. The argument compiles outside the group: a nested
                    // aggregate is the failure below.
                    Some((mut keys, mut aggs)) => {
                        let key = self.print_bound(e);
                        let slot = match keys.iter().position(|k| *k == key) {
                            Some(slot) => slot,
                            None => {
                                aggs.push(self.aggregate(e)?);
                                keys.push(key);
                                keys.len() - 1
                            }
                        };
                        self.group = Some((keys, aggs));
                        PExpr::Agg(slot)
                    }
                    None => PExpr::Fail(Error::Eval(format!(
                        "aggregate {}() used outside GROUP BY context",
                        name.to_uppercase()
                    ))),
                });
            }
            Expr::Function { name, star, .. } if *star => {
                let invalid = Error::Eval(format!("{name}(*) is not a valid call"));
                return Ok(PExpr::Fail(invalid));
            }
            Expr::Function { name, args, .. } => {
                let func = self.catalog.functions().get(name).cloned();
                let name = name.clone();
                (Op::Call { name, func }, self.args(args)?)
            }
            Expr::Case {
                branches,
                else_expr,
            } => {
                let branches = branches.iter().flat_map(|(c, r)| [c, r]);
                (Op::Case, self.args(branches.chain(else_expr.as_deref()))?)
            }
        };
        Ok(PExpr::Op { op, args })
    }

    fn subquery(&mut self, q: &'a Query, exists: bool) -> Result<Box<SubPlan>> {
        let slot = self.slots;
        self.slots += 1;
        self.open_subs.push((self.scopes.len(), false));
        // A subquery's aggregates are its own.
        let group = self.group.take();
        let query = self.query(q)?;
        self.group = group;
        let correlated = self.open_subs.pop().is_some_and(|(_, c)| c);
        let semi = (exists && correlated && self.config.semijoin_decorrelation)
            .then(|| semijoin_pairs(&query))
            .flatten();
        Ok(Box::new(SubPlan {
            query,
            correlated,
            cache: self.config.subquery_cache,
            slot,
            semi,
        }))
    }

    /// Compile with no row scope visible (views, the terms of a recursive
    /// CTE: they never see the enclosing query's rows). An error abandons
    /// the whole compilation, so only success restores the scopes.
    fn detached<T>(&mut self, f: impl FnOnce(&mut Self) -> Result<T>) -> Result<T> {
        let scopes = std::mem::take(&mut self.scopes);
        let open_subs = std::mem::take(&mut self.open_subs);
        let group = self.group.take();
        let out = f(self)?;
        (self.scopes, self.open_subs, self.group) = (scopes, open_subs, group);
        Ok(out)
    }

    // -- queries -----------------------------------------------------------

    pub(crate) fn query(&mut self, q: &'a Query) -> Result<QueryPlan> {
        let slots_start = self.slots;
        let ctes_in_scope = self.ctes.len();
        let mut ctes = Vec::new();
        if let Some(with) = &q.with {
            for cte in &with.ctes {
                let id = self.cte_ids;
                self.cte_ids += 1;
                let (plan, schema) =
                    if with.recursive && body_references(&cte.query.body, &cte.name) {
                        self.recursive_cte(cte, id)?
                    } else {
                        let plan = self.query(&cte.query)?;
                        let schema = rename_columns(&plan.schema, &cte.columns, &cte.name)?;
                        (CteBody::Plain(plan), schema)
                    };
                ctes.push(CtePlan {
                    name: cte.name.clone(),
                    id,
                    width: schema.len(),
                    body: plan,
                });
                self.ctes.push((&cte.name, id, schema));
            }
        }
        let (body, sort, visible) = match &q.body {
            // A plain SELECT may ORDER BY source columns that are not in the
            // projection; hidden sort columns handle that.
            SetExpr::Select(sel) if !q.order_by.is_empty() => self.select(sel, &q.order_by)?,
            body => {
                // Set operations sort by output columns / ordinals only.
                let b = self.set_expr(body)?;
                let sort = (!q.order_by.is_empty())
                    .then(|| self.output_keys(b.schema().columns(), &q.order_by));
                let visible = b.schema().len();
                (b, sort, visible)
            }
        };
        self.ctes.truncate(ctes_in_scope);
        let schema = if visible == body.schema().len() {
            Arc::clone(body.schema())
        } else {
            Arc::new(Schema::new(body.schema().columns()[..visible].to_vec()))
        };
        Ok(QueryPlan {
            ctes,
            slots: slots_start..self.slots,
            body,
            sort,
            order_by: q.order_by.len(),
            limit: q.limit,
            schema,
        })
    }

    fn set_expr(&mut self, body: &'a SetExpr) -> Result<SetPlan> {
        Ok(match body {
            SetExpr::Select(sel) => self.select(sel, &[])?.0,
            SetExpr::SetOp {
                op,
                all,
                left,
                right,
            } => SetPlan::Op {
                op: *op,
                all: *all,
                left: Box::new(self.set_expr(left)?),
                right: Box::new(self.set_expr(right)?),
            },
        })
    }

    fn recursive_cte(&mut self, cte: &'a Cte, id: usize) -> Result<(CteBody, Arc<Schema>)> {
        if !cte.query.order_by.is_empty() || cte.query.limit.is_some() {
            return Err(Error::Bind(
                "ORDER BY/LIMIT are not allowed in a recursive CTE body".into(),
            ));
        }
        let dedup = !union_chain_is_all(&cte.query.body)?;
        let name = cte.name.as_str();
        let parts = cte.query.body.flatten_setop(SetOp::Union);
        if parts.iter().all(|t| body_references(t, name)) {
            return Err(Error::Bind(format!(
                "recursive CTE '{}' has no non-recursive seed term",
                cte.name
            )));
        }
        let slots_start = self.slots;
        self.detached(|c| {
            // Seeds first: the first one names and types the CTE's columns,
            // which the recursive terms then read.
            let mut terms: Vec<Option<(SetPlan, bool)>> = parts.iter().map(|_| None).collect();
            let mut schema: Option<Arc<Schema>> = None;
            for (slot, part) in terms.iter_mut().zip(&parts) {
                if body_references(part, name) {
                    continue;
                }
                let seed = c.set_expr(part)?;
                let renamed = rename_columns(seed.schema(), &cte.columns, &cte.name)?;
                match &schema {
                    None => schema = Some(renamed),
                    Some(s) if s.len() != renamed.len() => {
                        return Err(Error::Bind(format!(
                            "recursive CTE '{}' seed terms disagree in arity",
                            cte.name
                        )))
                    }
                    Some(_) => {}
                }
                *slot = Some((seed, false));
            }
            let schema = schema.expect("at least one seed");
            c.ctes.push((name, id, Arc::clone(&schema)));
            for (slot, part) in terms.iter_mut().zip(&parts) {
                if slot.is_none() {
                    *slot = Some((c.set_expr(part)?, true));
                }
            }
            c.ctes.pop();
            let body = CteBody::Recursive {
                terms: terms.into_iter().flatten().collect(),
                dedup,
                limit: c.config.recursion_limit,
                slots: slots_start..c.slots,
            };
            Ok((body, schema))
        })
    }

    // -- SELECT ------------------------------------------------------------

    fn source(
        &mut self,
        factor: &'a TableFactor,
        subs: &mut usize,
    ) -> Result<(Source, SchemaRef<'a>)> {
        let mut sub = |plan: QueryPlan, view| {
            let schema = SchemaRef::Shared(Arc::clone(&plan.schema));
            *subs += 1;
            let source = Source::Sub {
                plan: Box::new(plan),
                view,
                slot: *subs - 1,
            };
            (source, schema)
        };
        match factor {
            TableFactor::Table { name, .. } => {
                if let Some((cte, id, schema)) = self
                    .ctes
                    .iter()
                    .rev()
                    .find(|(n, _, _)| n.eq_ignore_ascii_case(name))
                {
                    let (id, name) = (*id, cte.to_string());
                    let schema = SchemaRef::Shared(Arc::clone(schema));
                    return Ok((Source::Cte { id, name }, schema));
                }
                if let Ok(table) = self.catalog.table(name) {
                    let slot = self.table_slot(table);
                    return Ok((Source::Table(slot), SchemaRef::Table(&table.schema)));
                }
                if let Some(view) = self.catalog.view(name) {
                    if self.view_depth > 32 {
                        return Err(Error::Eval(
                            "view expansion too deep (cyclic views?)".into(),
                        ));
                    }
                    self.view_depth += 1;
                    let plan = self.detached(|c| c.query(&view.query))?;
                    self.view_depth -= 1;
                    return Ok(sub(plan, Some(view.name.clone())));
                }
                Err(Error::Bind(format!("unknown table '{name}'")))
            }
            // A derived table sees the enclosing queries' rows, not its
            // siblings in this FROM (whose scope is not open yet).
            TableFactor::Derived { subquery, .. } => Ok(sub(self.query(subquery)?, None)),
        }
    }

    /// Compile one SELECT block; `order_by` (for a SELECT that is a whole
    /// query body) is resolved against it, adding hidden sort columns where a
    /// key is neither an ordinal nor an output column. Returns the plan, the
    /// sort keys and the number of visible output columns.
    fn select(
        &mut self,
        sel: &'a Select,
        order_by: &'a [OrderItem],
    ) -> Result<(SetPlan, SortKeys, usize)> {
        // 1. FROM: sources and their schemas, before this SELECT's own scope
        //    opens.
        let mut factors = Vec::new();
        let mut ons = Vec::new();
        let mut bindings = Vec::new();
        let mut subs = 0;
        for twj in &sel.from {
            let steps = std::iter::once((&twj.base, JoinKind::Inner, None))
                .chain(twj.joins.iter().map(|j| (&j.factor, j.kind, j.on.as_ref())));
            for (i, (factor, kind, on)) in steps.enumerate() {
                let (source, schema) = self.source(factor, &mut subs)?;
                let binding = lower(factor.binding_name());
                ons.push(on);
                factors.push(Factor {
                    binding: binding.to_string(),
                    source,
                    kind,
                    new_item: i == 0,
                    on: on.is_some(),
                    on_local: true,
                    filters: Vec::new(),
                    probe: None,
                    join: Join::First,
                    nulls: match NULLS.get(..schema.len()) {
                        Some(nulls) => Cow::Borrowed(nulls),
                        None => Cow::Owned(vec![Value::Null; schema.len()]),
                    },
                });
                bindings.push((binding, schema));
            }
        }
        let visible = bindings.len();
        self.scopes.push(Scope { bindings, visible });

        // 2. WHERE: each conjunct goes into the scan of the one binding it
        //    reads, if there is exactly one and it is not the nullable side
        //    of a LEFT JOIN (filtering before null-padding changes the
        //    result); the rest are evaluated on the joined rows.
        let mut residual = Vec::new();
        for text in sel.where_clause.as_ref().map(conjuncts).unwrap_or_default() {
            let c = Conjunct {
                expr: self.expr(text)?,
                text: if self.explain {
                    text.to_string()
                } else {
                    String::new()
                },
            };
            let refs = Refs::of(&c.expr);
            let target = factors.iter_mut().enumerate().find(|(k, f)| {
                self.config.index_pushdown && refs.only(*k) && f.kind == JoinKind::Inner
            });
            match target {
                Some((_, f)) => f.filters.push(c),
                None => residual.push(c),
            }
        }

        // 3. Access path and join method of each factor. An ON clause sees
        //    the bindings up to its own.
        for (k, (f, on)) in factors.iter_mut().zip(ons).enumerate() {
            self.scopes.last_mut().expect("own scope").visible = k + 1;
            let on = self.args(on.map(conjuncts).unwrap_or_default())?;
            f.on_local = on.iter().all(|c| Refs::of(c).local());
            if k > 0 {
                f.join = self.join_method(f, k, on);
            }
            if let (&Source::Table(slot), false) = (&f.source, matches!(f.join, Join::Index { .. }))
            {
                let table = self.tables[slot];
                f.probe = self.index_probe(table, k, f.filters.iter().map(|c| &c.expr));
            }
        }
        self.scopes.last_mut().expect("own scope").visible = factors.len();

        // 4. Projection, grouping, ORDER BY keys.
        let grouped = !sel.group_by.is_empty()
            || sel.having.is_some()
            || sel.projection.iter().any(|item| match item {
                SelectItem::Expr { expr, .. } => expr.contains_aggregate(),
                _ => false,
            });
        let keys = sel
            .group_by
            .iter()
            .map(|g| self.expr(g))
            .collect::<Result<_>>()?;
        self.group = grouped.then(|| (Vec::new(), Vec::new()));
        let (items, columns, sort, visible) = self.projection(sel, order_by, grouped)?;
        let having = sel.having.as_ref().map(|h| self.expr(h)).transpose()?;
        let group = self
            .group
            .take()
            .map(|(_, aggs)| Group { keys, aggs, having });

        self.scopes.pop();
        let plan = SelectPlan {
            factors,
            subs,
            residual,
            items,
            schema: Arc::new(Schema::new(columns)),
            group,
            distinct: sel.distinct,
        };
        Ok((SetPlan::Select(Box::new(plan)), sort, visible))
    }

    /// How factor `k` joins the factors before it, from its ON conjuncts.
    fn join_method(&self, f: &Factor, k: usize, on: Vec<PExpr>) -> Join {
        // An equi conjunct between the left side and this factor, and whether
        // it is written `this = left`.
        let flipped = |c: &PExpr| match c {
            PExpr::Op {
                op: Op::Binary(BinOp::Eq),
                args,
            } => {
                let (l, r) = (Refs::of(&args[0]), Refs::of(&args[1]));
                let straight = l.left_of(k) && r.only(k);
                (straight || (r.left_of(k) && l.only(k))).then_some(!straight)
            }
            _ => None,
        };
        // Its operands as (left side, this factor).
        let pair = |c: PExpr, flipped: bool| {
            let PExpr::Op { args, .. } = c else {
                unreachable!("an equi conjunct is a comparison")
            };
            let mut operands = args.into_iter();
            match (operands.next(), operands.next()) {
                (Some(a), Some(b)) if flipped => (b, a),
                (Some(a), Some(b)) => (a, b),
                _ => unreachable!("a comparison has two operands"),
            }
        };
        let mut residual = on;
        // Index nested-loop join: this factor is a base table with a hash
        // index on the plain column the first such conjunct compares — what
        // keeps per-node navigational queries and semi-naive recursion from
        // rescanning the link table.
        let probe = residual.iter().enumerate().find_map(|(at, c)| {
            let flipped = flipped(c).filter(|_| self.config.index_pushdown)?;
            match (c, &f.source) {
                (PExpr::Op { args, .. }, &Source::Table(slot)) => match args[!flipped as usize] {
                    PExpr::Column { ordinal, .. } if self.tables[slot].has_index(ordinal) => {
                        Some((at, flipped, ordinal))
                    }
                    _ => None,
                },
                _ => None,
            }
        });
        if let Some((at, flipped, col)) = probe {
            let (key, _) = pair(residual.remove(at), flipped);
            return Join::Index { key, col, residual };
        }
        // Otherwise scan it and hash on every such conjunct; loop if none.
        let mut keys = Vec::new();
        let mut rest = Vec::new();
        for c in residual {
            match flipped(&c) {
                Some(flipped) => keys.push(pair(c, flipped)),
                None => rest.push(c),
            }
        }
        Join::Scanned {
            keys,
            residual: rest,
        }
    }

    fn aggregate(&mut self, agg: &'a Expr) -> Result<Agg> {
        let Expr::Function { name, args, star } = agg else {
            unreachable!("called for aggregate calls")
        };
        let arg = if *star {
            if name == "count" {
                AggArg::Star
            } else {
                AggArg::Invalid(Error::Eval(format!("{name}(*) is not valid")))
            }
        } else if let [arg] = args.as_slice() {
            AggArg::Expr(self.expr(arg)?)
        } else {
            AggArg::Invalid(Error::Eval(format!(
                "{}() expects exactly one argument",
                name.to_uppercase()
            )))
        };
        Ok(Agg {
            func: name.clone(),
            arg,
        })
    }

    /// Expand the projection list into compiled items and output columns,
    /// and resolve ORDER BY against them.
    fn projection(
        &mut self,
        sel: &'a Select,
        order_by: &'a [OrderItem],
        grouped: bool,
    ) -> Result<(Vec<PExpr>, Vec<Column>, SortKeys, usize)> {
        let mut items = Vec::with_capacity(sel.projection.len());
        let mut columns = Vec::with_capacity(sel.projection.len());
        // Result-schema types are best effort (the executor is dynamically
        // typed); a grouped SELECT types everything it cannot name FLOAT.
        let column = |name: Cow<'_, str>, dtype| Column {
            name: name.into_owned(),
            dtype,
            nullable: true,
        };
        // Output names an unqualified ORDER BY key may mean.
        let mut visible_names: Vec<Cow<'a, str>> = Vec::new();
        for item in &sel.projection {
            match item {
                SelectItem::Wildcard | SelectItem::QualifiedWildcard(_) => {
                    let scope = self.scopes.last().expect("own scope");
                    let all = 0..scope.bindings.len();
                    let range = match item {
                        SelectItem::QualifiedWildcard(q) => {
                            let b = scope
                                .bindings
                                .iter()
                                .position(|(n, _)| n.eq_ignore_ascii_case(q))
                                .ok_or_else(|| {
                                    Error::Bind(format!("unknown table alias '{q}' in {q}.*"))
                                })?;
                            b..b + 1
                        }
                        _ => all,
                    };
                    for binding in range {
                        for (ordinal, c) in scope.bindings[binding].1.columns().iter().enumerate() {
                            items.push(PExpr::Column {
                                depth: 0,
                                binding,
                                ordinal,
                            });
                            let dtype = if grouped { DataType::Float } else { c.dtype };
                            columns.push(column(Cow::Borrowed(&c.name), dtype));
                        }
                    }
                }
                SelectItem::Expr { expr, alias } => {
                    // The alias, else the column's or function's own name,
                    // else `col<position>` — which ORDER BY knows as `col1`
                    // wherever it stands.
                    let own = alias.as_deref().or(match expr {
                        Expr::Column { name, .. } | Expr::Function { name, .. } => Some(name),
                        _ => None,
                    });
                    let name = match own {
                        Some(name) => lower(name),
                        None => Cow::Owned(format!("col{}", items.len() + 1)),
                    };
                    if !order_by.is_empty() {
                        visible_names.push(own.map_or(Cow::Borrowed("col1"), lower));
                    }
                    let compiled = self.expr(expr)?;
                    let dtype = if grouped {
                        self.infer_agg_type(expr)
                    } else {
                        self.infer_type(&compiled)
                    };
                    items.push(compiled);
                    columns.push(column(name, dtype));
                }
            }
        }
        let visible = items.len();
        if order_by.is_empty() {
            return Ok((items, columns, None, visible));
        }
        // Aggregate selects (and DISTINCT, where hidden columns would change
        // dedup semantics) sort on output columns / ordinals only.
        if grouped || sel.distinct {
            let sort = self.output_keys(&columns, order_by);
            return Ok((items, columns, Some(sort), visible));
        }
        let mut keys = Vec::with_capacity(order_by.len());
        let mut failed = None;
        for item in order_by {
            let idx = match (&item.expr, self.value_of(&item.expr)) {
                (_, Some(Value::Int(n))) => {
                    let i = (*n - 1).max(0) as usize;
                    if i >= visible && failed.is_none() {
                        failed = Some(Error::Bind(format!(
                            "ORDER BY ordinal {} out of range 1..={visible}",
                            i + 1
                        )));
                    }
                    i
                }
                (
                    Expr::Column {
                        qualifier: None,
                        name,
                    },
                    _,
                ) if visible_names.iter().any(|v| v.eq_ignore_ascii_case(name)) => {
                    // An unaliased expression is `col1` here but `col<position>`
                    // in the output: past position 1 the key names no column.
                    let found = columns
                        .iter()
                        .position(|c| c.name.eq_ignore_ascii_case(name));
                    if found.is_none() && failed.is_none() {
                        failed = Some(Error::Bind(format!("unknown column '{}'", lower(name))));
                    }
                    found.unwrap_or(0)
                }
                (hidden, _) => {
                    let compiled = self.expr(hidden)?;
                    let dtype = self.infer_type(&compiled);
                    let name = format!("__ord{}", items.len() - visible);
                    columns.push(column(Cow::Owned(name), dtype));
                    items.push(compiled);
                    items.len() - 1
                }
            };
            keys.push((idx, item.desc));
        }
        let sort = match failed {
            Some(e) => Err(e),
            None => Ok(keys),
        };
        Ok((items, columns, Some(sort), visible))
    }

    /// Best-effort output type of a plain projection item.
    fn infer_type(&mut self, e: &PExpr) -> DataType {
        match e {
            PExpr::Column {
                depth: 0,
                binding,
                ordinal,
            } => {
                let scope = self.scopes.last().expect("own scope");
                scope.bindings[*binding].1.column(*ordinal).dtype
            }
            PExpr::Const(c) => {
                self.bound |= matches!(c, Const::Param(_));
                c.get(self.params).data_type().unwrap_or(DataType::Int)
            }
            PExpr::Op { op, args } => match op {
                Op::Cast(dtype) => *dtype,
                Op::Binary(BinOp::Concat) => DataType::Text,
                Op::Binary(BinOp::Plus | BinOp::Minus | BinOp::Mul | BinOp::Div | BinOp::Mod)
                | Op::Negate => self.infer_type(&args[0]),
                Op::Binary(_)
                | Op::Not
                | Op::IsNull { .. }
                | Op::Exists { .. }
                | Op::Between { .. }
                | Op::InList { .. }
                | Op::InSubquery { .. } => DataType::Bool,
                _ => DataType::Text,
            },
            _ => DataType::Text,
        }
    }

    fn infer_agg_type(&mut self, e: &'a Expr) -> DataType {
        match e {
            Expr::Function { name, .. } if name == "count" => DataType::Int,
            Expr::Function { name, .. } if name == "avg" => DataType::Float,
            Expr::Cast { dtype, .. } => *dtype,
            Expr::Literal(_) | Expr::Param(_) => self
                .value_of(e)
                .and_then(Value::data_type)
                .unwrap_or(DataType::Int),
            _ => DataType::Float,
        }
    }

    /// ORDER BY over a result as it stands: ordinals (`ORDER BY 1, 2`) or
    /// output-column names.
    fn output_keys(
        &mut self,
        columns: &[Column],
        order_by: &'a [OrderItem],
    ) -> Result<Vec<(usize, bool)>> {
        let mut keys = Vec::with_capacity(order_by.len());
        for item in order_by {
            let idx = match (&item.expr, self.value_of(&item.expr)) {
                (_, Some(Value::Int(n))) => {
                    let n = *n;
                    if n < 1 || n as usize > columns.len() {
                        return Err(Error::Bind(format!(
                            "ORDER BY ordinal {n} out of range 1..={}",
                            columns.len()
                        )));
                    }
                    (n - 1) as usize
                }
                (
                    Expr::Column {
                        qualifier: None,
                        name,
                    },
                    _,
                ) => columns
                    .iter()
                    .position(|c| c.name.eq_ignore_ascii_case(name))
                    .ok_or_else(|| Error::Bind(format!("unknown column '{name}'")))?,
                (other, _) => {
                    return Err(Error::Bind(format!(
                        "ORDER BY supports ordinals and output columns, got {}",
                        self.print_bound(other)
                    )))
                }
            };
            keys.push((idx, item.desc));
        }
        Ok(keys)
    }
}

/// A CTE's schema under its declared column list (keeping inferred types).
fn rename_columns(
    schema: &Arc<Schema>,
    declared: &[String],
    cte_name: &str,
) -> Result<Arc<Schema>> {
    if declared.is_empty() {
        return Ok(Arc::clone(schema));
    }
    if declared.len() != schema.len() {
        return Err(Error::Bind(format!(
            "CTE '{cte_name}' declares {} columns but its query produces {}",
            declared.len(),
            schema.len()
        )));
    }
    Ok(Arc::new(Schema::new(
        declared
            .iter()
            .zip(schema.columns())
            .map(|(name, col)| Column::new(name.clone(), col.dtype))
            .collect(),
    )))
}

/// The decorrelatable shape of a correlated EXISTS: a single SELECT without
/// aggregation over tables and CTEs, every conjunct either local to it or an
/// equality between a local and an outer-only expression.
fn semijoin_pairs(query: &QueryPlan) -> Option<Vec<(usize, bool)>> {
    if !query.ctes.is_empty() || query.limit == Some(0) {
        return None;
    }
    let SetPlan::Select(sel) = &query.body else {
        return None;
    };
    let plain = |f: &Factor| !matches!(f.source, Source::Sub { .. }) && f.on_local;
    if sel.group.is_some() || sel.factors.is_empty() || !sel.factors.iter().all(plain) {
        return None;
    }
    let mut pairs = Vec::new();
    for (i, c) in sel.residual.iter().enumerate() {
        if Refs::of(&c.expr).local() {
            continue;
        }
        let PExpr::Op {
            op: Op::Binary(BinOp::Eq),
            args,
        } = &c.expr
        else {
            return None;
        };
        let (l, r) = (Refs::of(&args[0]), Refs::of(&args[1]));
        if l.local() && r.outer_only() {
            pairs.push((i, true));
        } else if r.local() && l.outer_only() {
            pairs.push((i, false));
        } else {
            return None;
        }
    }
    (!pairs.is_empty()).then_some(pairs)
}

// What the template table keeps across statements and threads.
const _: () = {
    const fn assert_send_sync_static<T: Send + Sync + 'static>() {}
    assert_send_sync_static::<Plan>();
};
