//! Abstract syntax tree for the supported SQL subset, with faithful
//! SQL rendering via `Display`.
//!
//! Rendering matters here more than in a typical engine: the PDM client
//! *constructs* queries as ASTs (the paper's "query modificator" splices rule
//! predicates into them), then ships the rendered SQL text over the simulated
//! WAN — so `to_string()` output is what gets charged for request volume, and
//! every AST must round-trip through the parser.

use std::fmt;

use crate::value::{DataType, Value};

/// A top-level SQL statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    Query(Query),
    Insert {
        table: String,
        columns: Option<Vec<String>>,
        rows: Vec<Vec<Expr>>,
    },
    Update {
        table: String,
        assignments: Vec<(String, Expr)>,
        predicate: Option<Expr>,
    },
    Delete {
        table: String,
        predicate: Option<Expr>,
    },
    CreateTable {
        name: String,
        columns: Vec<ColumnDef>,
    },
    CreateView {
        name: String,
        query: Query,
    },
    CreateIndex {
        table: String,
        column: String,
    },
    DropTable {
        name: String,
    },
}

/// Column definition in CREATE TABLE.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnDef {
    pub name: String,
    pub dtype: DataType,
    pub nullable: bool,
}

/// A full query: optional WITH clause, set-expression body, ORDER BY, LIMIT.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    pub with: Option<With>,
    pub body: SetExpr,
    pub order_by: Vec<OrderItem>,
    pub limit: Option<u64>,
}

impl Query {
    /// A bare query wrapping a single SELECT.
    pub fn select(select: Select) -> Self {
        Query {
            with: None,
            body: SetExpr::Select(Box::new(select)),
            order_by: Vec::new(),
            limit: None,
        }
    }
}

/// `WITH [RECURSIVE] name (cols) AS (query), ...`
#[derive(Debug, Clone, PartialEq)]
pub struct With {
    pub recursive: bool,
    pub ctes: Vec<Cte>,
}

/// One common table expression.
#[derive(Debug, Clone, PartialEq)]
pub struct Cte {
    pub name: String,
    pub columns: Vec<String>,
    pub query: Query,
}

/// Body of a query: a SELECT or a set operation over two bodies.
#[derive(Debug, Clone, PartialEq)]
pub enum SetExpr {
    Select(Box<Select>),
    SetOp {
        op: SetOp,
        all: bool,
        left: Box<SetExpr>,
        right: Box<SetExpr>,
    },
}

impl SetExpr {
    /// Flatten a left-deep chain of same-kind set operations into its SELECT
    /// (or nested) operands, in source order. `WITH RECURSIVE x AS (a UNION b
    /// UNION c)` is seed `a` plus recursive terms `b`, `c`.
    pub fn flatten_setop(&self, op: SetOp) -> Vec<&SetExpr> {
        match self {
            SetExpr::SetOp {
                op: o, left, right, ..
            } if *o == op => {
                let mut parts = left.flatten_setop(op);
                parts.push(right);
                parts
            }
            other => vec![other],
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SetOp {
    Union,
    Intersect,
    Except,
}

/// One SELECT block.
#[derive(Debug, Clone, PartialEq)]
pub struct Select {
    pub distinct: bool,
    pub projection: Vec<SelectItem>,
    pub from: Vec<TableWithJoins>,
    pub where_clause: Option<Expr>,
    pub group_by: Vec<Expr>,
    pub having: Option<Expr>,
}

impl Select {
    /// An empty SELECT skeleton; builders fill in the pieces.
    pub fn new() -> Self {
        Select {
            distinct: false,
            projection: Vec::new(),
            from: Vec::new(),
            where_clause: None,
            group_by: Vec::new(),
            having: None,
        }
    }

    /// AND `pred` onto the existing WHERE clause (creating one if absent).
    /// This is the primitive the paper's query modificator uses (§4.1, §5.5):
    /// "the resulting predicate is either appended to an already existing
    /// WHERE clause with an AND or a new WHERE clause has to be generated".
    pub fn and_where(&mut self, pred: Expr) {
        self.where_clause = Some(match self.where_clause.take() {
            Some(existing) => Expr::BinaryOp {
                left: Box::new(existing),
                op: BinOp::And,
                right: Box::new(pred),
            },
            None => pred,
        });
    }

    /// Names of base tables referenced directly in this SELECT's FROM clause
    /// (not recursing into derived tables).
    pub fn from_table_names(&self) -> Vec<&str> {
        let mut names = Vec::new();
        for twj in &self.from {
            if let TableFactor::Table { name, .. } = &twj.base {
                names.push(name.as_str());
            }
            for j in &twj.joins {
                if let TableFactor::Table { name, .. } = &j.factor {
                    names.push(name.as_str());
                }
            }
        }
        names
    }
}

impl Default for Select {
    fn default() -> Self {
        Self::new()
    }
}

/// An item in the projection list.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectItem {
    /// `*`
    Wildcard,
    /// `alias.*`
    QualifiedWildcard(String),
    /// expression with optional `AS alias`
    Expr { expr: Expr, alias: Option<String> },
}

impl SelectItem {
    pub fn expr(expr: Expr) -> Self {
        SelectItem::Expr { expr, alias: None }
    }

    pub fn aliased(expr: Expr, alias: impl Into<String>) -> Self {
        SelectItem::Expr {
            expr,
            alias: Some(alias.into()),
        }
    }
}

/// One FROM entry: a base factor plus chained joins.
#[derive(Debug, Clone, PartialEq)]
pub struct TableWithJoins {
    pub base: TableFactor,
    pub joins: Vec<Join>,
}

impl TableWithJoins {
    pub fn table(name: impl Into<String>) -> Self {
        TableWithJoins {
            base: TableFactor::Table {
                name: name.into(),
                alias: None,
            },
            joins: Vec::new(),
        }
    }
}

/// A relation in FROM: base table/view/CTE by name, or a derived subquery.
#[derive(Debug, Clone, PartialEq)]
pub enum TableFactor {
    Table { name: String, alias: Option<String> },
    Derived { subquery: Box<Query>, alias: String },
}

impl TableFactor {
    /// The name this factor is visible as inside the query.
    pub fn binding_name(&self) -> &str {
        match self {
            TableFactor::Table { name, alias } => alias.as_deref().unwrap_or(name),
            TableFactor::Derived { alias, .. } => alias,
        }
    }
}

/// A join step chained after a base factor.
#[derive(Debug, Clone, PartialEq)]
pub struct Join {
    pub kind: JoinKind,
    pub factor: TableFactor,
    pub on: Option<Expr>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinKind {
    Inner,
    Left,
}

/// ORDER BY item: expression (commonly a 1-based ordinal) and direction.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderItem {
    pub expr: Expr,
    pub desc: bool,
}

/// Scalar expressions.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// `qualifier.name` or bare `name`.
    Column {
        qualifier: Option<String>,
        name: String,
    },
    Literal(Value),
    /// The `i`-th value bound to a template (`$i+1` in its text): only
    /// [`crate::template`] parses one, and the compiler reads the value it
    /// is bound to wherever it would read a literal.
    Param(usize),
    BinaryOp {
        left: Box<Expr>,
        op: BinOp,
        right: Box<Expr>,
    },
    Not(Box<Expr>),
    Negate(Box<Expr>),
    IsNull {
        expr: Box<Expr>,
        negated: bool,
    },
    InList {
        expr: Box<Expr>,
        list: Vec<Expr>,
        negated: bool,
    },
    InSubquery {
        expr: Box<Expr>,
        query: Box<Query>,
        negated: bool,
    },
    Exists {
        query: Box<Query>,
        negated: bool,
    },
    ScalarSubquery(Box<Query>),
    Between {
        expr: Box<Expr>,
        low: Box<Expr>,
        high: Box<Expr>,
        negated: bool,
    },
    /// `expr [NOT] LIKE pattern` — SQL pattern match (`%` any sequence,
    /// `_` any single character).
    Like {
        expr: Box<Expr>,
        pattern: Box<Expr>,
        negated: bool,
    },
    /// Function call — scalar builtin, stored/user-defined function, or an
    /// aggregate (COUNT/SUM/AVG/MIN/MAX). `star` marks `COUNT(*)`.
    Function {
        name: String,
        args: Vec<Expr>,
        star: bool,
    },
    Cast {
        expr: Box<Expr>,
        dtype: DataType,
    },
    Case {
        branches: Vec<(Expr, Expr)>,
        else_expr: Option<Box<Expr>>,
    },
}

impl Expr {
    pub fn col(name: impl Into<String>) -> Self {
        Expr::Column {
            qualifier: None,
            name: name.into(),
        }
    }

    pub fn qcol(qualifier: impl Into<String>, name: impl Into<String>) -> Self {
        Expr::Column {
            qualifier: Some(qualifier.into()),
            name: name.into(),
        }
    }

    pub fn lit(v: impl Into<Value>) -> Self {
        Expr::Literal(v.into())
    }

    pub fn binary(left: Expr, op: BinOp, right: Expr) -> Self {
        Expr::BinaryOp {
            left: Box::new(left),
            op,
            right: Box::new(right),
        }
    }

    pub fn eq(left: Expr, right: Expr) -> Self {
        Expr::binary(left, BinOp::Eq, right)
    }

    pub fn and(left: Expr, right: Expr) -> Self {
        Expr::binary(left, BinOp::And, right)
    }

    pub fn or(left: Expr, right: Expr) -> Self {
        Expr::binary(left, BinOp::Or, right)
    }

    /// OR-fold a non-empty list of predicates (the paper forms "the
    /// disjunction of all conditions found" before injecting them, §5.5).
    pub fn disjunction(mut preds: Vec<Expr>) -> Option<Expr> {
        let first = if preds.is_empty() {
            return None;
        } else {
            preds.remove(0)
        };
        Some(preds.into_iter().fold(first, Expr::or))
    }

    /// AND-fold a non-empty list of predicates.
    pub fn conjunction(mut preds: Vec<Expr>) -> Option<Expr> {
        let first = if preds.is_empty() {
            return None;
        } else {
            preds.remove(0)
        };
        Some(preds.into_iter().fold(first, Expr::and))
    }

    /// True if the expression contains an aggregate function call at any
    /// depth *outside* of subqueries (a subquery's aggregates are its own).
    pub fn contains_aggregate(&self) -> bool {
        match self {
            Expr::Function { name, args, .. } => {
                is_aggregate_name(name) || args.iter().any(Expr::contains_aggregate)
            }
            Expr::BinaryOp { left, right, .. } => {
                left.contains_aggregate() || right.contains_aggregate()
            }
            Expr::Not(e) | Expr::Negate(e) | Expr::Cast { expr: e, .. } => e.contains_aggregate(),
            Expr::IsNull { expr, .. } => expr.contains_aggregate(),
            Expr::InList { expr, list, .. } => {
                expr.contains_aggregate() || list.iter().any(Expr::contains_aggregate)
            }
            Expr::Between {
                expr, low, high, ..
            } => expr.contains_aggregate() || low.contains_aggregate() || high.contains_aggregate(),
            Expr::Like { expr, pattern, .. } => {
                expr.contains_aggregate() || pattern.contains_aggregate()
            }
            Expr::Case {
                branches,
                else_expr,
            } => {
                branches
                    .iter()
                    .any(|(c, r)| c.contains_aggregate() || r.contains_aggregate())
                    || else_expr.as_ref().is_some_and(|e| e.contains_aggregate())
            }
            Expr::Column { .. }
            | Expr::Literal(_)
            | Expr::Param(_)
            | Expr::InSubquery { .. }
            | Expr::Exists { .. }
            | Expr::ScalarSubquery(_) => false,
        }
    }
}

/// True for the five SQL aggregate function names the engine supports.
pub fn is_aggregate_name(name: &str) -> bool {
    matches!(name, "count" | "sum" | "avg" | "min" | "max")
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    Eq,
    NotEq,
    Lt,
    LtEq,
    Gt,
    GtEq,
    And,
    Or,
    Plus,
    Minus,
    Mul,
    Div,
    Mod,
    Concat,
}

impl BinOp {
    /// Binding strength for rendering (higher binds tighter). Mirrors the
    /// parser's precedence so rendered SQL re-parses to the same tree.
    fn precedence(self) -> u8 {
        match self {
            BinOp::Or => 1,
            BinOp::And => 2,
            BinOp::Eq | BinOp::NotEq | BinOp::Lt | BinOp::LtEq | BinOp::Gt | BinOp::GtEq => 4,
            BinOp::Plus | BinOp::Minus | BinOp::Concat => 5,
            BinOp::Mul | BinOp::Div | BinOp::Mod => 6,
        }
    }
}

// ---------------------------------------------------------------------------
// SQL rendering
// ---------------------------------------------------------------------------

impl fmt::Display for Statement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Statement::Query(q) => write!(f, "{q}"),
            Statement::Insert {
                table,
                columns,
                rows,
            } => {
                write!(f, "INSERT INTO {table}")?;
                if let Some(cols) = columns {
                    write!(f, " ({})", cols.join(", "))?;
                }
                write!(f, " VALUES ")?;
                for (i, row) in rows.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "(")?;
                    for (j, e) in row.iter().enumerate() {
                        if j > 0 {
                            write!(f, ", ")?;
                        }
                        write!(f, "{e}")?;
                    }
                    write!(f, ")")?;
                }
                Ok(())
            }
            Statement::Update {
                table,
                assignments,
                predicate,
            } => {
                write!(f, "UPDATE {table} SET ")?;
                for (i, (col, e)) in assignments.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{col} = {e}")?;
                }
                if let Some(p) = predicate {
                    write!(f, " WHERE {p}")?;
                }
                Ok(())
            }
            Statement::Delete { table, predicate } => {
                write!(f, "DELETE FROM {table}")?;
                if let Some(p) = predicate {
                    write!(f, " WHERE {p}")?;
                }
                Ok(())
            }
            Statement::CreateTable { name, columns } => {
                write!(f, "CREATE TABLE {name} (")?;
                for (i, c) in columns.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{} {}", c.name, c.dtype)?;
                    if !c.nullable {
                        write!(f, " NOT NULL")?;
                    }
                }
                write!(f, ")")
            }
            Statement::CreateView { name, query } => {
                write!(f, "CREATE VIEW {name} AS {query}")
            }
            Statement::CreateIndex { table, column } => {
                write!(f, "CREATE INDEX ON {table} ({column})")
            }
            Statement::DropTable { name } => write!(f, "DROP TABLE {name}"),
        }
    }
}

impl fmt::Display for Query {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(with) = &self.with {
            write!(f, "WITH ")?;
            if with.recursive {
                write!(f, "RECURSIVE ")?;
            }
            for (i, cte) in with.ctes.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{}", cte.name)?;
                if !cte.columns.is_empty() {
                    write!(f, " ({})", cte.columns.join(", "))?;
                }
                write!(f, " AS ({})", cte.query)?;
            }
            write!(f, " ")?;
        }
        write!(f, "{}", self.body)?;
        if !self.order_by.is_empty() {
            write!(f, " ORDER BY ")?;
            for (i, item) in self.order_by.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{}", item.expr)?;
                if item.desc {
                    write!(f, " DESC")?;
                }
            }
        }
        if let Some(n) = self.limit {
            write!(f, " LIMIT {n}")?;
        }
        Ok(())
    }
}

impl fmt::Display for SetExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SetExpr::Select(s) => write!(f, "{s}"),
            SetExpr::SetOp {
                op,
                all,
                left,
                right,
            } => {
                let kw = match op {
                    SetOp::Union => "UNION",
                    SetOp::Intersect => "INTERSECT",
                    SetOp::Except => "EXCEPT",
                };
                write!(f, "{left} {kw}{}", if *all { " ALL" } else { "" })?;
                // The grammar is left-associative with a single precedence
                // level for all three operators, so a set-op on the *right*
                // must be parenthesized to re-parse with the same shape.
                if matches!(**right, SetExpr::SetOp { .. }) {
                    write!(f, " ({right})")
                } else {
                    write!(f, " {right}")
                }
            }
        }
    }
}

impl fmt::Display for Select {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SELECT ")?;
        if self.distinct {
            write!(f, "DISTINCT ")?;
        }
        for (i, item) in self.projection.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            match item {
                SelectItem::Wildcard => write!(f, "*")?,
                SelectItem::QualifiedWildcard(q) => write!(f, "{q}.*")?,
                SelectItem::Expr { expr, alias } => {
                    write!(f, "{expr}")?;
                    if let Some(a) = alias {
                        write!(f, " AS \"{a}\"")?;
                    }
                }
            }
        }
        if !self.from.is_empty() {
            write!(f, " FROM ")?;
            for (i, twj) in self.from.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{}", twj.base)?;
                for j in &twj.joins {
                    let kw = match j.kind {
                        JoinKind::Inner => "JOIN",
                        JoinKind::Left => "LEFT JOIN",
                    };
                    write!(f, " {kw} {}", j.factor)?;
                    if let Some(on) = &j.on {
                        write!(f, " ON {on}")?;
                    }
                }
            }
        }
        if let Some(w) = &self.where_clause {
            write!(f, " WHERE {w}")?;
        }
        if !self.group_by.is_empty() {
            write!(f, " GROUP BY ")?;
            for (i, e) in self.group_by.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{e}")?;
            }
        }
        if let Some(h) = &self.having {
            write!(f, " HAVING {h}")?;
        }
        Ok(())
    }
}

impl fmt::Display for TableFactor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TableFactor::Table { name, alias } => {
                write!(f, "{name}")?;
                if let Some(a) = alias {
                    write!(f, " AS {a}")?;
                }
                Ok(())
            }
            TableFactor::Derived { subquery, alias } => {
                write!(f, "({subquery}) AS {alias}")
            }
        }
    }
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BinOp::Eq => "=",
            BinOp::NotEq => "<>",
            BinOp::Lt => "<",
            BinOp::LtEq => "<=",
            BinOp::Gt => ">",
            BinOp::GtEq => ">=",
            BinOp::And => "AND",
            BinOp::Or => "OR",
            BinOp::Plus => "+",
            BinOp::Minus => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Mod => "%",
            BinOp::Concat => "||",
        };
        write!(f, "{s}")
    }
}

impl Expr {
    /// Precedence of this expression node for parenthesization.
    fn precedence(&self) -> u8 {
        match self {
            Expr::BinaryOp { op, .. } => op.precedence(),
            Expr::Not(_) => 3,
            // IN / BETWEEN / IS NULL sit at comparison level.
            Expr::InList { .. }
            | Expr::InSubquery { .. }
            | Expr::Between { .. }
            | Expr::Like { .. }
            | Expr::IsNull { .. } => 4,
            _ => 10,
        }
    }

    fn fmt_child(&self, f: &mut fmt::Formatter<'_>, parent_prec: u8) -> fmt::Result {
        if self.precedence() < parent_prec {
            write!(f, "({self})")
        } else {
            write!(f, "{self}")
        }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Column { qualifier, name } => {
                if let Some(q) = qualifier {
                    write!(f, "{q}.")?;
                }
                write!(f, "{name}")
            }
            Expr::Literal(v) => write!(f, "{v}"),
            Expr::Param(i) => write!(f, "${}", i + 1),
            Expr::BinaryOp { left, op, right } => {
                let prec = op.precedence();
                // Comparisons are non-associative in the grammar (`a = b = c`
                // does not parse), so a comparison-level operand on either
                // side must be parenthesized. Associative operators only
                // need strictly-higher precedence on the right to avoid
                // re-association on round-trip.
                let comparison = matches!(
                    op,
                    BinOp::Eq | BinOp::NotEq | BinOp::Lt | BinOp::LtEq | BinOp::Gt | BinOp::GtEq
                );
                left.fmt_child(f, if comparison { prec + 1 } else { prec })?;
                write!(f, " {op} ")?;
                right.fmt_child(f, prec + 1)
            }
            Expr::Not(e) => {
                write!(f, "NOT ")?;
                e.fmt_child(f, 4)
            }
            Expr::Negate(e) => {
                write!(f, "-")?;
                e.fmt_child(f, 7)
            }
            Expr::IsNull { expr, negated } => {
                expr.fmt_child(f, 5)?;
                write!(f, " IS {}NULL", if *negated { "NOT " } else { "" })
            }
            Expr::InList {
                expr,
                list,
                negated,
            } => {
                expr.fmt_child(f, 5)?;
                write!(f, " {}IN (", if *negated { "NOT " } else { "" })?;
                for (i, e) in list.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{e}")?;
                }
                write!(f, ")")
            }
            Expr::InSubquery {
                expr,
                query,
                negated,
            } => {
                expr.fmt_child(f, 5)?;
                write!(f, " {}IN ({query})", if *negated { "NOT " } else { "" })
            }
            Expr::Exists { query, negated } => {
                write!(f, "{}EXISTS ({query})", if *negated { "NOT " } else { "" })
            }
            Expr::ScalarSubquery(q) => write!(f, "({q})"),
            Expr::Between {
                expr,
                low,
                high,
                negated,
            } => {
                expr.fmt_child(f, 5)?;
                write!(f, " {}BETWEEN ", if *negated { "NOT " } else { "" })?;
                low.fmt_child(f, 5)?;
                write!(f, " AND ")?;
                high.fmt_child(f, 5)
            }
            Expr::Like {
                expr,
                pattern,
                negated,
            } => {
                expr.fmt_child(f, 5)?;
                write!(f, " {}LIKE ", if *negated { "NOT " } else { "" })?;
                pattern.fmt_child(f, 5)
            }
            Expr::Function { name, args, star } => {
                write!(f, "{}(", name.to_ascii_uppercase())?;
                if *star {
                    write!(f, "*")?;
                } else {
                    for (i, a) in args.iter().enumerate() {
                        if i > 0 {
                            write!(f, ", ")?;
                        }
                        write!(f, "{a}")?;
                    }
                }
                write!(f, ")")
            }
            Expr::Cast { expr, dtype } => {
                let type_name = match dtype {
                    DataType::Int => "integer",
                    DataType::Float => "double",
                    DataType::Text => "varchar",
                    DataType::Bool => "boolean",
                };
                write!(f, "CAST ({expr} AS {type_name})")
            }
            Expr::Case {
                branches,
                else_expr,
            } => {
                write!(f, "CASE")?;
                for (cond, result) in branches {
                    write!(f, " WHEN {cond} THEN {result}")?;
                }
                if let Some(e) = else_expr {
                    write!(f, " ELSE {e}")?;
                }
                write!(f, " END")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_produce_expected_sql() {
        let mut sel = Select::new();
        sel.projection.push(SelectItem::expr(Expr::col("name")));
        sel.from.push(TableWithJoins::table("assy"));
        sel.and_where(Expr::eq(Expr::qcol("assy", "obid"), Expr::lit(1i64)));
        let q = Query::select(sel);
        assert_eq!(q.to_string(), "SELECT name FROM assy WHERE assy.obid = 1");
    }

    #[test]
    fn and_where_appends_with_and() {
        let mut sel = Select::new();
        sel.projection.push(SelectItem::Wildcard);
        sel.from.push(TableWithJoins::table("t"));
        sel.and_where(Expr::eq(Expr::col("a"), Expr::lit(1i64)));
        sel.and_where(Expr::eq(Expr::col("b"), Expr::lit(2i64)));
        assert_eq!(sel.to_string(), "SELECT * FROM t WHERE a = 1 AND b = 2");
    }

    #[test]
    fn disjunction_folds_with_or() {
        let d = Expr::disjunction(vec![
            Expr::eq(Expr::col("a"), Expr::lit(1i64)),
            Expr::eq(Expr::col("b"), Expr::lit(2i64)),
            Expr::eq(Expr::col("c"), Expr::lit(3i64)),
        ])
        .unwrap();
        assert_eq!(d.to_string(), "a = 1 OR b = 2 OR c = 3");
        assert!(Expr::disjunction(vec![]).is_none());
    }

    #[test]
    fn or_under_and_is_parenthesized() {
        let or = Expr::or(
            Expr::eq(Expr::col("a"), Expr::lit(1i64)),
            Expr::eq(Expr::col("b"), Expr::lit(2i64)),
        );
        let and = Expr::and(Expr::eq(Expr::col("c"), Expr::lit(3i64)), or);
        assert_eq!(and.to_string(), "c = 3 AND (a = 1 OR b = 2)");
    }

    #[test]
    fn not_exists_renders() {
        let mut inner = Select::new();
        inner.projection.push(SelectItem::Wildcard);
        inner.from.push(TableWithJoins::table("rtbl"));
        let e = Expr::Exists {
            query: Box::new(Query::select(inner)),
            negated: true,
        };
        assert_eq!(e.to_string(), "NOT EXISTS (SELECT * FROM rtbl)");
    }

    #[test]
    fn cast_null_as_integer_renders_like_paper() {
        let e = Expr::Cast {
            expr: Box::new(Expr::Literal(Value::Null)),
            dtype: DataType::Int,
        };
        assert_eq!(e.to_string(), "CAST (NULL AS integer)");
    }

    #[test]
    fn aggregate_detection() {
        let e = Expr::binary(
            Expr::Function {
                name: "count".into(),
                args: vec![],
                star: true,
            },
            BinOp::LtEq,
            Expr::lit(10i64),
        );
        assert!(e.contains_aggregate());
        assert!(!Expr::col("x").contains_aggregate());
        // aggregates inside a scalar subquery don't count for the outer expr
        let mut s = Select::new();
        s.projection.push(SelectItem::expr(Expr::Function {
            name: "count".into(),
            args: vec![],
            star: true,
        }));
        let sub = Expr::ScalarSubquery(Box::new(Query::select(s)));
        assert!(!sub.contains_aggregate());
    }

    #[test]
    fn flatten_setop_unrolls_left_deep_unions() {
        let mk = |n: i64| {
            let mut s = Select::new();
            s.projection.push(SelectItem::expr(Expr::lit(n)));
            SetExpr::Select(Box::new(s))
        };
        let u = SetExpr::SetOp {
            op: SetOp::Union,
            all: false,
            left: Box::new(SetExpr::SetOp {
                op: SetOp::Union,
                all: false,
                left: Box::new(mk(1)),
                right: Box::new(mk(2)),
            }),
            right: Box::new(mk(3)),
        };
        assert_eq!(u.flatten_setop(SetOp::Union).len(), 3);
        assert_eq!(u.flatten_setop(SetOp::Except).len(), 1);
    }

    #[test]
    fn from_table_names_includes_joins() {
        let mut sel = Select::new();
        sel.projection.push(SelectItem::Wildcard);
        let mut twj = TableWithJoins::table("rtbl");
        twj.joins.push(Join {
            kind: JoinKind::Inner,
            factor: TableFactor::Table {
                name: "link".into(),
                alias: None,
            },
            on: Some(Expr::eq(
                Expr::qcol("rtbl", "obid"),
                Expr::qcol("link", "left"),
            )),
        });
        sel.from.push(twj);
        assert_eq!(sel.from_table_names(), vec!["rtbl", "link"]);
    }

    #[test]
    fn update_statement_renders() {
        let st = Statement::Update {
            table: "assy".into(),
            assignments: vec![("checkedout".into(), Expr::lit(true))],
            predicate: Some(Expr::eq(Expr::col("obid"), Expr::lit(4i64))),
        };
        assert_eq!(
            st.to_string(),
            "UPDATE assy SET checkedout = TRUE WHERE obid = 4"
        );
    }
}
