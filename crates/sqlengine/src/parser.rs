//! Recursive-descent parser for the supported SQL subset.
//!
//! Covers everything the paper's queries need: `WITH RECURSIVE`, `UNION
//! [ALL]`, joins with `ON`, `EXISTS` / `NOT EXISTS` / `IN` subqueries, scalar
//! subqueries, aggregates, `CAST`, `CASE`, `ORDER BY`, plus the DML/DDL used
//! by the PDM server (INSERT / UPDATE / DELETE / CREATE TABLE / CREATE VIEW /
//! CREATE INDEX / DROP TABLE).
//!
//! The text is scanned once, as the grammar asks for tokens: a token borrows
//! from the text, a name is copied (and folded to lowercase) exactly once,
//! when it enters the AST ([`Parser::expect_ident`]), and a list is
//! allocated once ([`Parser::comma_list`]).

use crate::ast::*;
use crate::error::{Error, Result};
use crate::lexer::{Kw, Lexer, Token};
use crate::value::{DataType, Value};

/// Run `parse` over what `lexer` scans. A lexical error anywhere in the text
/// outranks a parse error before it, as if the whole text were tokenized up
/// front.
fn parse_with<'a, T>(
    lexer: Lexer<'a>,
    parse: impl FnOnce(&mut Parser<'a>) -> Result<T>,
) -> Result<T> {
    let mut p = Parser {
        lexer,
        tok: None,
        lex_error: None,
    };
    p.bump();
    let parsed = parse(&mut p);
    if parsed.is_err() {
        while p.scan().is_some() {}
    }
    match p.lex_error {
        Some(e) => Err(e),
        None => parsed,
    }
}

/// Parse a single SQL statement (a trailing semicolon is allowed).
pub fn parse_statement(sql: &str) -> Result<Statement> {
    statement(Lexer::new(sql))
}

fn statement(lexer: Lexer<'_>) -> Result<Statement> {
    parse_with(lexer, |p| {
        let stmt = p.parse_statement()?;
        p.eat(Token::Semicolon);
        match p.peek() {
            None => Ok(stmt),
            rest => Err(Error::Parse(format!(
                "unexpected trailing input at token {rest:?}"
            ))),
        }
    })
}

/// Parse a query (SELECT / WITH ...), rejecting DML/DDL.
pub fn parse_query(sql: &str) -> Result<Query> {
    query(Lexer::new(sql))
}

/// Parse a template's text: a query in which `$n` stands for the `n`-th
/// bound value ([`Expr::Param`]). The one parse that accepts `$n`.
pub(crate) fn parse_template(template: &str) -> Result<Query> {
    query(Lexer::template(template))
}

fn query(lexer: Lexer<'_>) -> Result<Query> {
    match statement(lexer)? {
        Statement::Query(q) => Ok(q),
        other => Err(Error::Parse(format!("expected a query, got {other}"))),
    }
}

/// Parse a standalone scalar/boolean expression (used by tests and the rule
/// translator round-trip checks).
pub fn parse_expr(sql: &str) -> Result<Expr> {
    parse_with(Lexer::new(sql), |p| {
        let e = p.parse_expr()?;
        match p.peek() {
            None => Ok(e),
            Some(_) => Err(Error::Parse("trailing input after expression".into())),
        }
    })
}

struct Parser<'a> {
    /// Positioned behind `tok`.
    lexer: Lexer<'a>,
    /// The next token; `None` is the end of the text.
    tok: Option<Token<'a>>,
    /// The first lexical error; the text reads as ended from there.
    lex_error: Option<Error>,
}

/// Binding levels of the expression grammar, loosest first: `OR`, `AND`,
/// prefix `NOT`, the comparisons (non-associative, with the `IS` / `IN` /
/// `BETWEEN` / `LIKE` forms), `+ - ||`, `* / %`.
const OR: u8 = 1;
const AND: u8 = 2;
const NOT: u8 = 3;
const CMP: u8 = 4;
const ADD: u8 = 5;
const MUL: u8 = 6;

impl<'a> Parser<'a> {
    fn scan(&mut self) -> Option<Token<'a>> {
        if self.lex_error.is_some() {
            return None;
        }
        self.lexer.next_token().unwrap_or_else(|e| {
            self.lex_error = Some(e);
            None
        })
    }

    fn peek(&self) -> Option<Token<'a>> {
        self.tok
    }

    /// The token `offset` past the next one, scanned again when the parser
    /// gets there: looking ahead is rare (`name . *`, `NOT IN`, `( SELECT`)
    /// and a second scan of a token or two is cheaper than keeping every
    /// token in a buffer. An error ahead reads as the end of the text here
    /// and is reported when the scan reaches it.
    fn peek_at(&self, offset: usize) -> Option<Token<'a>> {
        let mut ahead = self.lexer;
        let mut token = self.tok;
        for _ in 0..offset {
            token = ahead.next_token().ok().flatten();
        }
        token
    }

    /// Consume the next token. Kept out of line: it holds the inlined copy
    /// of the lexer that writes the token in place.
    #[inline(never)]
    fn bump(&mut self) {
        self.tok = self.scan();
    }

    fn advance(&mut self) -> Option<Token<'a>> {
        let token = self.tok;
        self.bump();
        token
    }

    fn peek_kw(&self, kw: Kw) -> bool {
        self.peek() == Some(Token::Kw(kw))
    }

    /// Does a query (`SELECT`, `WITH`, or with `paren` a parenthesized one)
    /// start `offset` tokens ahead?
    fn query_starts_at(&self, offset: usize, paren: bool) -> bool {
        match self.peek_at(offset) {
            Some(Token::Kw(Kw::Select | Kw::With)) => true,
            Some(Token::LParen) => paren,
            _ => false,
        }
    }

    /// Consume `tok` if it is next; report whether it was.
    fn eat(&mut self, tok: Token<'_>) -> bool {
        let found = self.tok == Some(tok);
        if found {
            self.bump();
        }
        found
    }

    fn eat_kw(&mut self, kw: Kw) -> bool {
        self.eat(Token::Kw(kw))
    }

    fn expect_kw(&mut self, kw: Kw) -> Result<()> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(Error::Parse(format!(
                "expected keyword {} but found {:?}",
                kw.as_str().to_uppercase(),
                self.peek()
            )))
        }
    }

    fn expect_symbol(&mut self, tok: Token<'_>) -> Result<()> {
        if self.eat(tok) {
            Ok(())
        } else {
            Err(Error::Parse(format!(
                "expected {tok:?} but found {:?}",
                self.peek()
            )))
        }
    }

    /// The spelling of any identifier (quoted or not, a keyword included),
    /// as written; errors otherwise.
    fn expect_name(&mut self) -> Result<&'a str> {
        let name = match self.tok {
            Some(Token::Ident(s) | Token::QuotedIdent(s)) => s,
            Some(Token::Kw(kw)) => kw.as_str(),
            other => {
                self.bump();
                return Err(Error::Parse(format!(
                    "expected identifier, found {other:?}"
                )));
            }
        };
        self.bump();
        Ok(name)
    }

    /// Any identifier, folded to lowercase: where a name enters the AST.
    fn expect_ident(&mut self) -> Result<String> {
        Ok(self.expect_name()?.to_ascii_lowercase())
    }

    /// One or more `item`s separated by commas. `usual` is how many such a
    /// list holds in the statements sessions ship: the vector is allocated
    /// once for them and grows only beyond.
    fn comma_list<T>(
        &mut self,
        usual: usize,
        mut item: impl FnMut(&mut Self) -> Result<T>,
    ) -> Result<Vec<T>> {
        let mut items = Vec::with_capacity(usual);
        loop {
            items.push(item(self)?);
            if !self.eat(Token::Comma) {
                return Ok(items);
            }
        }
    }

    /// `( item, ... )`.
    fn paren_list<T>(
        &mut self,
        usual: usize,
        item: impl FnMut(&mut Self) -> Result<T>,
    ) -> Result<Vec<T>> {
        self.expect_symbol(Token::LParen)?;
        let items = self.comma_list(usual, item)?;
        self.expect_symbol(Token::RParen)?;
        Ok(items)
    }

    // -- statements ---------------------------------------------------------

    fn parse_statement(&mut self) -> Result<Statement> {
        if self.query_starts_at(0, true) {
            return Ok(Statement::Query(self.parse_query()?));
        }
        if self.eat_kw(Kw::Insert) {
            return self.parse_insert();
        }
        if self.eat_kw(Kw::Update) {
            return self.parse_update();
        }
        if self.eat_kw(Kw::Delete) {
            return self.parse_delete();
        }
        if self.eat_kw(Kw::Create) {
            return self.parse_create();
        }
        if self.eat_kw(Kw::Drop) {
            self.expect_kw(Kw::Table)?;
            let name = self.expect_ident()?;
            return Ok(Statement::DropTable { name });
        }
        Err(Error::Parse(format!(
            "unrecognized statement start: {:?}",
            self.peek()
        )))
    }

    fn parse_insert(&mut self) -> Result<Statement> {
        self.expect_kw(Kw::Into)?;
        let table = self.expect_ident()?;
        let columns = if self.peek() == Some(Token::LParen) {
            Some(self.paren_list(8, Self::expect_ident)?)
        } else {
            None
        };
        self.expect_kw(Kw::Values)?;
        let rows = self.comma_list(1, |p| p.paren_list(8, Self::parse_expr))?;
        Ok(Statement::Insert {
            table,
            columns,
            rows,
        })
    }

    fn parse_update(&mut self) -> Result<Statement> {
        let table = self.expect_ident()?;
        self.expect_kw(Kw::Set)?;
        let assignments = self.comma_list(1, |p| {
            let col = p.expect_ident()?;
            p.expect_symbol(Token::Eq)?;
            Ok((col, p.parse_expr()?))
        })?;
        let predicate = self.parse_optional_where()?;
        Ok(Statement::Update {
            table,
            assignments,
            predicate,
        })
    }

    fn parse_delete(&mut self) -> Result<Statement> {
        self.expect_kw(Kw::From)?;
        let table = self.expect_ident()?;
        let predicate = self.parse_optional_where()?;
        Ok(Statement::Delete { table, predicate })
    }

    fn parse_optional_where(&mut self) -> Result<Option<Expr>> {
        if self.eat_kw(Kw::Where) {
            Ok(Some(self.parse_expr()?))
        } else {
            Ok(None)
        }
    }

    fn parse_create(&mut self) -> Result<Statement> {
        if self.eat_kw(Kw::Table) {
            let name = self.expect_ident()?;
            let columns = self.paren_list(8, |p| {
                let name = p.expect_ident()?;
                let dtype = p.parse_data_type()?;
                let nullable = !p.eat_kw(Kw::Not);
                if !nullable {
                    p.expect_kw(Kw::Null)?;
                }
                Ok(ColumnDef {
                    name,
                    dtype,
                    nullable,
                })
            })?;
            Ok(Statement::CreateTable { name, columns })
        } else if self.eat_kw(Kw::View) {
            let name = self.expect_ident()?;
            self.expect_kw(Kw::As)?;
            let query = self.parse_query()?;
            Ok(Statement::CreateView { name, query })
        } else if self.eat_kw(Kw::Index) {
            self.expect_kw(Kw::On)?;
            let table = self.expect_ident()?;
            self.expect_symbol(Token::LParen)?;
            let column = self.expect_ident()?;
            self.expect_symbol(Token::RParen)?;
            Ok(Statement::CreateIndex { table, column })
        } else {
            Err(Error::Parse(
                "expected TABLE, VIEW, or INDEX after CREATE".into(),
            ))
        }
    }

    fn parse_data_type(&mut self) -> Result<DataType> {
        const NAMES: [(&str, DataType); 15] = [
            ("int", DataType::Int),
            ("integer", DataType::Int),
            ("bigint", DataType::Int),
            ("smallint", DataType::Int),
            ("double", DataType::Float),
            ("float", DataType::Float),
            ("real", DataType::Float),
            ("decimal", DataType::Float),
            ("numeric", DataType::Float),
            ("varchar", DataType::Text),
            ("char", DataType::Text),
            ("text", DataType::Text),
            ("string", DataType::Text),
            ("boolean", DataType::Bool),
            ("bool", DataType::Bool),
        ];
        let name = self.expect_name()?;
        let Some((_, dt)) = NAMES.iter().find(|(n, _)| name.eq_ignore_ascii_case(n)) else {
            let other = name.to_ascii_lowercase();
            return Err(Error::Parse(format!("unknown data type '{other}'")));
        };
        // swallow optional length like VARCHAR(40)
        if self.eat(Token::LParen) {
            while !self.eat(Token::RParen) {
                if self.advance().is_none() {
                    return Err(Error::Parse("unterminated type parameter list".into()));
                }
            }
        }
        Ok(*dt)
    }

    // -- queries ------------------------------------------------------------

    fn parse_query(&mut self) -> Result<Query> {
        let with = if self.eat_kw(Kw::With) {
            let recursive = self.eat_kw(Kw::Recursive);
            let ctes = self.comma_list(1, |p| {
                let name = p.expect_ident()?;
                let columns = if p.peek() == Some(Token::LParen) {
                    p.paren_list(16, Self::expect_ident)?
                } else {
                    Vec::new()
                };
                p.expect_kw(Kw::As)?;
                p.expect_symbol(Token::LParen)?;
                let query = p.parse_query()?;
                p.expect_symbol(Token::RParen)?;
                Ok(Cte {
                    name,
                    columns,
                    query,
                })
            })?;
            Some(With { recursive, ctes })
        } else {
            None
        };

        let body = self.parse_set_expr()?;

        let mut order_by = Vec::new();
        if self.eat_kw(Kw::Order) {
            self.expect_kw(Kw::By)?;
            order_by = self.comma_list(2, |p| {
                let expr = p.parse_expr()?;
                let desc = p.eat_kw(Kw::Desc);
                if !desc {
                    p.eat_kw(Kw::Asc);
                }
                Ok(OrderItem { expr, desc })
            })?;
        }

        let limit = if self.eat_kw(Kw::Limit) {
            match self.advance() {
                Some(Token::Int(n)) if n >= 0 => Some(n as u64),
                other => return Err(Error::Parse(format!("expected LIMIT count, got {other:?}"))),
            }
        } else {
            None
        };

        Ok(Query {
            with,
            body,
            order_by,
            limit,
        })
    }

    /// Set expressions are left-associative:
    /// `a UNION b UNION c` == `(a UNION b) UNION c`.
    fn parse_set_expr(&mut self) -> Result<SetExpr> {
        let mut left = self.parse_set_term()?;
        loop {
            let op = match self.peek() {
                Some(Token::Kw(Kw::Union)) => SetOp::Union,
                Some(Token::Kw(Kw::Intersect)) => SetOp::Intersect,
                Some(Token::Kw(Kw::Except)) => SetOp::Except,
                _ => break,
            };
            self.bump();
            let all = self.eat_kw(Kw::All);
            let right = self.parse_set_term()?;
            left = SetExpr::SetOp {
                op,
                all,
                left: Box::new(left),
                right: Box::new(right),
            };
        }
        Ok(left)
    }

    fn parse_set_term(&mut self) -> Result<SetExpr> {
        // Parenthesized query body: (SELECT ... UNION ...)
        if self.peek() == Some(Token::LParen) && self.query_starts_at(1, true) {
            self.bump();
            let inner = self.parse_query()?;
            self.expect_symbol(Token::RParen)?;
            if inner.with.is_none() && inner.order_by.is_empty() && inner.limit.is_none() {
                return Ok(inner.body);
            }
            // Keep full query semantics by wrapping as derived table.
            let mut sel = Select::new();
            sel.projection.push(SelectItem::Wildcard);
            sel.from.push(TableWithJoins {
                base: TableFactor::Derived {
                    subquery: Box::new(inner),
                    alias: "__q".into(),
                },
                joins: Vec::new(),
            });
            return Ok(SetExpr::Select(Box::new(sel)));
        }
        self.expect_kw(Kw::Select)?;
        Ok(SetExpr::Select(Box::new(self.parse_select_after_kw()?)))
    }

    /// Parse the remainder of a SELECT after the SELECT keyword itself.
    fn parse_select_after_kw(&mut self) -> Result<Select> {
        let mut sel = Select::new();
        sel.distinct = self.eat_kw(Kw::Distinct);
        if sel.distinct {
            self.eat_kw(Kw::All);
        }

        sel.projection = self.comma_list(12, |p| {
            if p.eat(Token::Star) {
                return Ok(SelectItem::Wildcard);
            }
            if matches!(p.peek(), Some(Token::Ident(_) | Token::Kw(_)))
                && p.peek_at(1) == Some(Token::Dot)
                && p.peek_at(2) == Some(Token::Star)
            {
                let qualifier = p.expect_ident()?;
                p.bump();
                p.bump();
                return Ok(SelectItem::QualifiedWildcard(qualifier));
            }
            let expr = p.parse_expr()?;
            let alias = p.parse_optional_alias()?;
            Ok(SelectItem::Expr { expr, alias })
        })?;

        if self.eat_kw(Kw::From) {
            sel.from = self.comma_list(1, Self::parse_table_with_joins)?;
        }

        sel.where_clause = self.parse_optional_where()?;

        if self.eat_kw(Kw::Group) {
            self.expect_kw(Kw::By)?;
            sel.group_by = self.comma_list(2, Self::parse_expr)?;
        }

        if self.eat_kw(Kw::Having) {
            sel.having = Some(self.parse_expr()?);
        }

        Ok(sel)
    }

    fn parse_optional_alias(&mut self) -> Result<Option<String>> {
        if self.eat_kw(Kw::As) {
            return Ok(Some(self.expect_ident()?));
        }
        match self.peek() {
            Some(Token::Ident(_) | Token::QuotedIdent(_)) => Ok(Some(self.expect_ident()?)),
            Some(Token::Kw(kw)) if !kw.is_reserved() => Ok(Some(self.expect_ident()?)),
            _ => Ok(None),
        }
    }

    fn parse_table_with_joins(&mut self) -> Result<TableWithJoins> {
        let base = self.parse_table_factor()?;
        let mut joins = Vec::new();
        loop {
            let kind = if self.peek_kw(Kw::Join) || self.peek_kw(Kw::Inner) {
                self.eat_kw(Kw::Inner);
                self.expect_kw(Kw::Join)?;
                JoinKind::Inner
            } else if self.eat_kw(Kw::Left) {
                self.eat_kw(Kw::Outer);
                self.expect_kw(Kw::Join)?;
                JoinKind::Left
            } else {
                break;
            };
            let factor = self.parse_table_factor()?;
            let on = if self.eat_kw(Kw::On) {
                Some(self.parse_expr()?)
            } else {
                None
            };
            joins.push(Join { kind, factor, on });
        }
        Ok(TableWithJoins { base, joins })
    }

    fn parse_table_factor(&mut self) -> Result<TableFactor> {
        if self.eat(Token::LParen) {
            let subquery = self.parse_query()?;
            self.expect_symbol(Token::RParen)?;
            let alias = self
                .parse_optional_alias()?
                .ok_or_else(|| Error::Parse("derived table requires an alias".into()))?;
            return Ok(TableFactor::Derived {
                subquery: Box::new(subquery),
                alias,
            });
        }
        let name = self.expect_ident()?;
        let alias = self.parse_optional_alias()?;
        Ok(TableFactor::Table { name, alias })
    }

    // -- expressions --------------------------------------------------------

    fn parse_expr(&mut self) -> Result<Expr> {
        self.parse_level(OR)
    }

    /// An expression whose operators all bind at level `min` or tighter.
    /// One loop over the operators that follow an operand, instead of one
    /// function per level around every operand.
    fn parse_level(&mut self, min: u8) -> Result<Expr> {
        // NOT is an operator only where an operand of AND / OR may start.
        let (mut left, mut max) = if min <= NOT && self.eat_kw(Kw::Not) {
            (Expr::Not(Box::new(self.parse_level(NOT)?)), AND)
        } else {
            (self.parse_unary()?, MUL)
        };
        // `max`: the tightest level an operator applied to `left` may have.
        loop {
            let tok = self.tok;
            let (level, op) = match tok {
                Some(Token::Star) => (MUL, BinOp::Mul),
                Some(Token::Slash) => (MUL, BinOp::Div),
                Some(Token::Percent) => (MUL, BinOp::Mod),
                Some(Token::Plus) => (ADD, BinOp::Plus),
                Some(Token::Minus) => (ADD, BinOp::Minus),
                Some(Token::Concat) => (ADD, BinOp::Concat),
                Some(Token::Eq) => (CMP, BinOp::Eq),
                Some(Token::NotEq) => (CMP, BinOp::NotEq),
                Some(Token::Lt) => (CMP, BinOp::Lt),
                Some(Token::LtEq) => (CMP, BinOp::LtEq),
                Some(Token::Gt) => (CMP, BinOp::Gt),
                Some(Token::GtEq) => (CMP, BinOp::GtEq),
                Some(Token::Kw(Kw::And)) => (AND, BinOp::And),
                Some(Token::Kw(Kw::Or)) => (OR, BinOp::Or),
                Some(Token::Kw(kw @ (Kw::Is | Kw::In | Kw::Between | Kw::Like | Kw::Not)))
                    if min <= CMP && CMP <= max =>
                {
                    // [NOT] IN / [NOT] BETWEEN / [NOT] LIKE
                    let negated = kw == Kw::Not;
                    if negated {
                        if !matches!(
                            self.peek_at(1),
                            Some(Token::Kw(Kw::In | Kw::Between | Kw::Like))
                        ) {
                            return Ok(left);
                        }
                        self.bump();
                    }
                    (left, max) = (self.parse_predicate(left, negated)?, AND);
                    continue;
                }
                _ => return Ok(left),
            };
            if level < min || level > max {
                return Ok(left);
            }
            self.bump();
            let right = self.parse_level(level + 1)?;
            left = Expr::binary(left, op, right);
            // A comparison does not chain: only AND / OR may follow it.
            max = if level == CMP { AND } else { level };
        }
    }

    /// `left IS [NOT] NULL`, `left IN (...)`, `left BETWEEN low AND high`
    /// or `left LIKE pattern`, the next token being that keyword (a NOT
    /// before the last three is consumed and passed as `negated`).
    fn parse_predicate(&mut self, left: Expr, negated: bool) -> Result<Expr> {
        let expr = Box::new(left);

        if self.eat_kw(Kw::Is) {
            let negated = self.eat_kw(Kw::Not);
            self.expect_kw(Kw::Null)?;
            return Ok(Expr::IsNull { expr, negated });
        }

        if self.eat_kw(Kw::In) {
            self.expect_symbol(Token::LParen)?;
            if self.query_starts_at(0, false) {
                let query = Box::new(self.parse_query()?);
                self.expect_symbol(Token::RParen)?;
                return Ok(Expr::InSubquery {
                    expr,
                    query,
                    negated,
                });
            }
            let list = self.comma_list(16, Self::parse_expr)?;
            self.expect_symbol(Token::RParen)?;
            return Ok(Expr::InList {
                expr,
                list,
                negated,
            });
        }

        if self.eat_kw(Kw::Between) {
            let low = Box::new(self.parse_level(ADD)?);
            self.expect_kw(Kw::And)?;
            let high = Box::new(self.parse_level(ADD)?);
            return Ok(Expr::Between {
                expr,
                low,
                high,
                negated,
            });
        }

        self.expect_kw(Kw::Like)?;
        let pattern = Box::new(self.parse_level(ADD)?);
        Ok(Expr::Like {
            expr,
            pattern,
            negated,
        })
    }

    fn parse_unary(&mut self) -> Result<Expr> {
        if self.eat(Token::Minus) {
            let inner = self.parse_unary()?;
            // fold negation of numeric literals
            return Ok(match inner {
                Expr::Literal(Value::Int(i)) => Expr::Literal(Value::Int(-i)),
                Expr::Literal(Value::Float(x)) => Expr::Literal(Value::Float(-x)),
                other => Expr::Negate(Box::new(other)),
            });
        }
        self.eat(Token::Plus);
        self.parse_primary()
    }

    fn parse_primary(&mut self) -> Result<Expr> {
        let literal = |p: &mut Self, value| {
            p.bump();
            Ok(Expr::Literal(value))
        };
        match self.peek() {
            Some(Token::Int(n)) => literal(self, Value::Int(n)),
            Some(Token::Param(i)) => {
                self.bump();
                Ok(Expr::Param(i))
            }
            Some(Token::Float(x)) => literal(self, Value::Float(x)),
            Some(Token::Str(raw, escaped)) => {
                literal(self, Value::Text(Token::unescape(raw, escaped)))
            }
            Some(Token::Kw(Kw::Null)) => literal(self, Value::Null),
            Some(Token::Kw(Kw::True)) => literal(self, Value::Bool(true)),
            Some(Token::Kw(Kw::False)) => literal(self, Value::Bool(false)),
            Some(Token::LParen) => {
                self.bump();
                if self.query_starts_at(0, false) {
                    let q = self.parse_query()?;
                    self.expect_symbol(Token::RParen)?;
                    Ok(Expr::ScalarSubquery(Box::new(q)))
                } else {
                    let e = self.parse_expr()?;
                    self.expect_symbol(Token::RParen)?;
                    Ok(e)
                }
            }
            Some(Token::Kw(Kw::Exists)) => {
                self.bump();
                self.expect_symbol(Token::LParen)?;
                let q = self.parse_query()?;
                self.expect_symbol(Token::RParen)?;
                Ok(Expr::Exists {
                    query: Box::new(q),
                    negated: false,
                })
            }
            Some(Token::Kw(Kw::Cast)) => {
                self.bump();
                self.expect_symbol(Token::LParen)?;
                let e = self.parse_expr()?;
                self.expect_kw(Kw::As)?;
                let dtype = self.parse_data_type()?;
                self.expect_symbol(Token::RParen)?;
                Ok(Expr::Cast {
                    expr: Box::new(e),
                    dtype,
                })
            }
            Some(Token::Kw(Kw::Case)) => {
                self.bump();
                let mut branches = Vec::new();
                while self.eat_kw(Kw::When) {
                    let cond = self.parse_expr()?;
                    self.expect_kw(Kw::Then)?;
                    let result = self.parse_expr()?;
                    branches.push((cond, result));
                }
                if branches.is_empty() {
                    return Err(Error::Parse("CASE requires at least one WHEN".into()));
                }
                let else_expr = if self.eat_kw(Kw::Else) {
                    Some(Box::new(self.parse_expr()?))
                } else {
                    None
                };
                self.expect_kw(Kw::End)?;
                Ok(Expr::Case {
                    branches,
                    else_expr,
                })
            }
            Some(Token::Ident(_) | Token::Kw(_) | Token::QuotedIdent(_)) => self.parse_ident_expr(),
            other => Err(Error::Parse(format!("unexpected token {other:?}"))),
        }
    }

    /// Identifier-led expression: function call, qualified column, or bare
    /// column.
    fn parse_ident_expr(&mut self) -> Result<Expr> {
        let first = self.expect_ident()?;
        // function call?
        if self.eat(Token::LParen) {
            if self.eat(Token::Star) {
                self.expect_symbol(Token::RParen)?;
                return Ok(Expr::Function {
                    name: first,
                    args: vec![],
                    star: true,
                });
            }
            // COUNT(DISTINCT x) is normalized to COUNT(x) — the engine's
            // UNION-heavy workloads never produce duplicates we care about,
            // and accepting the syntax keeps paper-style queries parseable.
            self.eat_kw(Kw::Distinct);
            let args = if self.peek() == Some(Token::RParen) {
                Vec::new()
            } else {
                self.comma_list(2, Self::parse_expr)?
            };
            self.expect_symbol(Token::RParen)?;
            return Ok(Expr::Function {
                name: first,
                args,
                star: false,
            });
        }
        // qualified column?
        if self.eat(Token::Dot) {
            let name = self.expect_ident()?;
            return Ok(Expr::Column {
                qualifier: Some(first),
                name,
            });
        }
        Ok(Expr::Column {
            qualifier: None,
            name: first,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_select() {
        let q = parse_query("SELECT name FROM assy WHERE assy.obid = 1").unwrap();
        let SetExpr::Select(sel) = &q.body else {
            panic!()
        };
        assert_eq!(sel.projection.len(), 1);
        assert_eq!(sel.from_table_names(), vec!["assy"]);
        assert!(sel.where_clause.is_some());
    }

    #[test]
    fn select_star_and_qualified_star() {
        let q = parse_query("SELECT *, a.* FROM a").unwrap();
        let SetExpr::Select(sel) = &q.body else {
            panic!()
        };
        assert!(matches!(sel.projection[0], SelectItem::Wildcard));
        assert!(matches!(&sel.projection[1], SelectItem::QualifiedWildcard(q) if q == "a"));
    }

    #[test]
    fn joins_with_on() {
        let q = parse_query(
            "SELECT assy.name FROM rtbl JOIN link ON rtbl.obid=link.left \
             JOIN assy ON link.right=assy.obid",
        )
        .unwrap();
        let SetExpr::Select(sel) = &q.body else {
            panic!()
        };
        assert_eq!(sel.from.len(), 1);
        assert_eq!(sel.from[0].joins.len(), 2);
        assert_eq!(sel.from_table_names(), vec!["rtbl", "link", "assy"]);
    }

    #[test]
    fn left_join() {
        let q = parse_query("SELECT * FROM a LEFT JOIN b ON a.x = b.y").unwrap();
        let SetExpr::Select(sel) = &q.body else {
            panic!()
        };
        assert_eq!(sel.from[0].joins[0].kind, JoinKind::Left);
    }

    #[test]
    fn with_recursive_full_paper_query_parses() {
        // Verbatim (modulo whitespace) from Section 5.2 of the paper.
        let sql = r#"
            WITH RECURSIVE rtbl (type, obid, name, dec) AS
            (SELECT type, obid, name, dec
               FROM assy
              WHERE assy.obid = 1
             UNION
             SELECT assy.type, assy.obid, assy.name, assy.dec
               FROM rtbl JOIN link ON rtbl.obid=link.left
                         JOIN assy ON link.right=assy.obid
             UNION
             SELECT comp.type, comp.obid, comp.name, ''
               FROM rtbl JOIN link ON rtbl.obid=link.left
                         JOIN comp ON link.right=comp.obid
            )
            SELECT type, obid, name, dec AS "DEC",
                   cast (NULL AS integer) AS "LEFT",
                   cast (NULL AS integer) AS "RIGHT",
                   cast (NULL AS integer) AS "EFF_FROM",
                   cast (NULL AS integer) AS "EFF_TO"
              FROM rtbl
            UNION
            SELECT type, obid, '' AS "NAME", '' AS "DEC",
                   left, right, eff_from, eff_to
              FROM link
             WHERE (left IN (SELECT obid FROM rtbl)
               AND right IN (SELECT obid FROM rtbl))
            ORDER BY 1,2
        "#;
        let q = parse_query(sql).unwrap();
        let with = q.with.as_ref().unwrap();
        assert!(with.recursive);
        assert_eq!(with.ctes.len(), 1);
        assert_eq!(with.ctes[0].name, "rtbl");
        assert_eq!(with.ctes[0].columns, vec!["type", "obid", "name", "dec"]);
        // CTE body is a two-deep UNION chain = 3 terms
        assert_eq!(with.ctes[0].query.body.flatten_setop(SetOp::Union).len(), 3);
        assert_eq!(q.order_by.len(), 2);
    }

    #[test]
    fn not_exists_subquery() {
        let e =
            parse_expr("NOT EXISTS (SELECT * FROM rtbl WHERE (type='assy' AND dec!='+'))").unwrap();
        let Expr::Not(inner) = e else {
            panic!("expected NOT")
        };
        assert!(matches!(*inner, Expr::Exists { negated: false, .. }));
    }

    #[test]
    fn scalar_subquery_comparison() {
        let e = parse_expr("(SELECT COUNT(*) FROM rtbl WHERE type='assy') <= 10").unwrap();
        let Expr::BinaryOp { left, op, .. } = e else {
            panic!()
        };
        assert_eq!(op, BinOp::LtEq);
        assert!(matches!(*left, Expr::ScalarSubquery(_)));
    }

    #[test]
    fn in_list_and_in_subquery() {
        let e = parse_expr("x IN (1, 2, 3)").unwrap();
        assert!(matches!(e, Expr::InList { negated: false, .. }));
        let e = parse_expr("x NOT IN (SELECT y FROM t)").unwrap();
        assert!(matches!(e, Expr::InSubquery { negated: true, .. }));
    }

    #[test]
    fn between() {
        let e = parse_expr("eff BETWEEN 1 AND 10").unwrap();
        assert!(matches!(e, Expr::Between { negated: false, .. }));
        let e = parse_expr("eff NOT BETWEEN 1 AND 10").unwrap();
        assert!(matches!(e, Expr::Between { negated: true, .. }));
    }

    #[test]
    fn precedence_or_and() {
        let e = parse_expr("a = 1 OR b = 2 AND c = 3").unwrap();
        // AND binds tighter: a=1 OR (b=2 AND c=3)
        let Expr::BinaryOp { op, right, .. } = e else {
            panic!()
        };
        assert_eq!(op, BinOp::Or);
        assert!(matches!(*right, Expr::BinaryOp { op: BinOp::And, .. }));
    }

    #[test]
    fn arithmetic_precedence() {
        let e = parse_expr("1 + 2 * 3").unwrap();
        let Expr::BinaryOp { op, right, .. } = e else {
            panic!()
        };
        assert_eq!(op, BinOp::Plus);
        assert!(matches!(*right, Expr::BinaryOp { op: BinOp::Mul, .. }));
    }

    #[test]
    fn negative_literals_folded() {
        assert_eq!(parse_expr("-5").unwrap(), Expr::Literal(Value::Int(-5)));
        assert_eq!(
            parse_expr("-2.5").unwrap(),
            Expr::Literal(Value::Float(-2.5))
        );
    }

    #[test]
    fn aliases_with_and_without_as() {
        let q = parse_query("SELECT a AS x, b y FROM t AS u").unwrap();
        let SetExpr::Select(sel) = &q.body else {
            panic!()
        };
        let SelectItem::Expr { alias, .. } = &sel.projection[0] else {
            panic!()
        };
        assert_eq!(alias.as_deref(), Some("x"));
        let SelectItem::Expr { alias, .. } = &sel.projection[1] else {
            panic!()
        };
        assert_eq!(alias.as_deref(), Some("y"));
        let TableFactor::Table { alias, .. } = &sel.from[0].base else {
            panic!()
        };
        assert_eq!(alias.as_deref(), Some("u"));
    }

    #[test]
    fn reserved_word_not_taken_as_alias() {
        let q = parse_query("SELECT a FROM t WHERE a = 1").unwrap();
        let SetExpr::Select(sel) = &q.body else {
            panic!()
        };
        // WHERE must not have been swallowed as an alias of `t`
        assert!(sel.where_clause.is_some());
    }

    #[test]
    fn insert_update_delete_parse() {
        assert!(matches!(
            parse_statement("INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y')").unwrap(),
            Statement::Insert { .. }
        ));
        assert!(matches!(
            parse_statement("UPDATE t SET a = 1 WHERE b = 2").unwrap(),
            Statement::Update { .. }
        ));
        assert!(matches!(
            parse_statement("DELETE FROM t WHERE a = 1").unwrap(),
            Statement::Delete { .. }
        ));
    }

    #[test]
    fn create_table_and_view_and_index() {
        let st = parse_statement(
            "CREATE TABLE assy (type VARCHAR(8) NOT NULL, obid INTEGER NOT NULL, name VARCHAR, dec VARCHAR)",
        )
        .unwrap();
        let Statement::CreateTable { name, columns } = st else {
            panic!()
        };
        assert_eq!(name, "assy");
        assert_eq!(columns.len(), 4);
        assert!(!columns[0].nullable);
        assert!(columns[2].nullable);

        assert!(matches!(
            parse_statement("CREATE VIEW v AS SELECT * FROM t").unwrap(),
            Statement::CreateView { .. }
        ));
        assert!(matches!(
            parse_statement("CREATE INDEX ON link (left)").unwrap(),
            Statement::CreateIndex { .. }
        ));
    }

    #[test]
    fn case_expression() {
        let e = parse_expr("CASE WHEN a = 1 THEN 'one' ELSE 'other' END").unwrap();
        let Expr::Case {
            branches,
            else_expr,
        } = e
        else {
            panic!()
        };
        assert_eq!(branches.len(), 1);
        assert!(else_expr.is_some());
    }

    #[test]
    fn trailing_garbage_rejected() {
        assert!(parse_query("SELECT 1 garbage junk +").is_err());
        assert!(parse_statement("SELECT 1; SELECT 2").is_err());
    }

    #[test]
    fn union_all_vs_union() {
        let q = parse_query("SELECT 1 UNION ALL SELECT 2 UNION SELECT 3").unwrap();
        let SetExpr::SetOp { all, left, .. } = &q.body else {
            panic!()
        };
        assert!(!all);
        assert!(matches!(**left, SetExpr::SetOp { all: true, .. }));
    }

    #[test]
    fn rendered_sql_round_trips() {
        let sources = [
            "SELECT a, b FROM t WHERE a = 1 AND (b = 2 OR c = 3)",
            "SELECT COUNT(*) FROM t GROUP BY a HAVING COUNT(*) > 2",
            "SELECT * FROM a JOIN b ON a.x = b.y WHERE EXISTS (SELECT * FROM c WHERE c.z = a.x)",
            "SELECT CAST (NULL AS integer) AS \"LEFT\" FROM t ORDER BY 1 DESC",
            "SELECT x FROM t WHERE x BETWEEN 1 AND 10 OR x IS NOT NULL",
        ];
        for src in sources {
            let q1 = parse_query(src).unwrap();
            let rendered = q1.to_string();
            let q2 = parse_query(&rendered)
                .unwrap_or_else(|e| panic!("re-parse of '{rendered}' failed: {e}"));
            assert_eq!(q1, q2, "round-trip mismatch for {src}");
        }
    }

    #[test]
    fn keyword_spelled_names_where_any_name_is_taken() {
        let q = parse_query("SELECT Link.LEFT, index.* FROM Index AS \"Left\"").unwrap();
        assert_eq!(
            q.to_string(),
            parse_query("SELECT link.left, index.* FROM index AS left")
                .unwrap()
                .to_string()
        );
        // A reserved word is no implicit alias; `all` and `outer` are.
        assert!(parse_query("SELECT a FROM t left").is_err());
        assert!(parse_query("SELECT a outer FROM t all").is_ok());
    }

    #[test]
    fn lexical_error_anywhere_outranks_a_parse_error_before_it() {
        assert_eq!(
            parse_statement("SELEC 'unterminated"),
            Err(Error::Lex("unterminated string literal".into()))
        );
        assert_eq!(
            parse_expr("a b #"),
            Err(Error::Lex("unexpected character '#'".into()))
        );
        // ... and one the look-ahead runs into is reported once, as itself.
        assert_eq!(
            parse_query("SELECT a.# FROM t"),
            Err(Error::Lex("unexpected character '#'".into()))
        );
    }

    #[test]
    fn limit_clause() {
        let q = parse_query("SELECT * FROM t LIMIT 5").unwrap();
        assert_eq!(q.limit, Some(5));
    }

    #[test]
    fn derived_table_requires_alias() {
        assert!(parse_query("SELECT * FROM (SELECT 1)").is_err());
        assert!(parse_query("SELECT * FROM (SELECT 1) AS d").is_ok());
    }
}
