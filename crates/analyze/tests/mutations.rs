//! Mutation fixtures: for every analyzer check, at least one corrupted
//! query or rule table that the analyzer provably rejects.
//!
//! The meta-test at the bottom walks [`Check::ALL`], so adding a check to
//! the registry without adding a fixture here fails the build.

#![allow(clippy::unwrap_used)]

use pdm_analyze::placement::check_placement;
use pdm_analyze::{Analyzer, Check, Report, SchemaInfo};
use pdm_core::query::{navigational, recursive, T_LINK};
use pdm_core::rules::condition::{CmpOp, Condition, FnArg, RowPredicate};
use pdm_core::rules::paper_rules;
use pdm_core::rules::table::RuleTable;
use pdm_core::rules::translate::row_predicate_expr;
use pdm_core::rules::{visibility_rules, ActionKind, Rule};
use pdm_sql::ast::{Expr, Query, Select, SelectItem, SetExpr, TableWithJoins};
use pdm_sql::parser::parse_query;
use pdm_sql::Value;

/// Run the full query analysis over a SQL string fixture.
fn analyze_sql(sql: &str) -> Report {
    let q = parse_query(sql).unwrap();
    Analyzer::paper().analyze(&q)
}

fn analyze_rules(rules: RuleTable) -> Report {
    Analyzer::paper().analyze_rule_table(&rules)
}

/// Run the statement-level analysis over a SQL string fixture (the
/// recovery-replay DML path).
fn analyze_statement_sql(sql: &str) -> Report {
    let stmt = pdm_sql::parser::parse_statement(sql).unwrap();
    Analyzer::paper().analyze_statement(&stmt)
}

fn row_rule(object_type: &str, pred: RowPredicate) -> Rule {
    Rule::for_all_users(ActionKind::Access, object_type, Condition::Row(pred))
}

fn placement_fixture_missing() -> Report {
    // Unmodified recursive query audited against rules that demand
    // injections: every mandated predicate is missing.
    let q = recursive::mle_query(1);
    let mut r = Report::new();
    check_placement(
        &q,
        &paper_rules(),
        "scott",
        ActionKind::MultiLevelExpand,
        &mut r,
    );
    r
}

fn placement_fixture_misplaced() -> Report {
    // Splice the assy visibility predicate onto the *comp* branch of the
    // expand union — a predicate the plan expects only in the assy branch.
    let mut q = navigational::expand_query_in(42, T_LINK);
    let pred = row_predicate_expr(
        &RowPredicate::compare("strc_opt", CmpOp::Eq, "OPTA"),
        "assy",
    );
    let SetExpr::SetOp { right, .. } = &mut q.body else {
        panic!("expand query is a union");
    };
    let SetExpr::Select(sel) = right.as_mut() else {
        panic!("union branch is a select");
    };
    sel.and_where(pred);
    let mut r = Report::new();
    check_placement(&q, &visibility_rules(), "scott", ActionKind::Expand, &mut r);
    r
}

fn drift_fixture() -> Report {
    // A function name with a space renders as SQL that cannot re-parse.
    let mut sel = Select::new();
    sel.projection = vec![SelectItem::expr(Expr::Function {
        name: "no such fn".into(),
        args: vec![],
        star: false,
    })];
    sel.from.push(TableWithJoins::table("assy"));
    let q = Query {
        with: None,
        body: SetExpr::Select(Box::new(sel)),
        order_by: Vec::new(),
        limit: None,
    };
    Analyzer::new(SchemaInfo::paper()).analyze(&q)
}

fn fixtures() -> Vec<(Check, Report)> {
    vec![
        // -- name/scope resolution ------------------------------------
        (
            Check::UnknownTable,
            analyze_sql("SELECT name FROM nonesuch"),
        ),
        (Check::UnknownColumn, analyze_sql("SELECT bogus FROM assy")),
        (
            Check::AmbiguousColumn,
            analyze_sql("SELECT name FROM assy JOIN comp ON assy.obid = comp.obid"),
        ),
        (
            Check::UnknownFunction,
            analyze_sql("SELECT frobnicate(obid) FROM assy"),
        ),
        (
            Check::CteArityMismatch,
            analyze_sql("WITH c (a, b) AS (SELECT obid FROM assy) SELECT a FROM c"),
        ),
        (
            Check::SetOpArityMismatch,
            analyze_sql("SELECT obid FROM assy UNION SELECT obid, name FROM comp"),
        ),
        (
            Check::AggregateInWhere,
            analyze_sql("SELECT obid FROM assy WHERE COUNT(*) > 0"),
        ),
        (
            Check::OrderByOutOfRange,
            analyze_sql("SELECT obid FROM assy ORDER BY 3"),
        ),
        // -- recursive-CTE safety -------------------------------------
        (
            Check::NoSeedTerm,
            analyze_sql(
                "WITH RECURSIVE r (n) AS (SELECT r.n FROM r JOIN link ON r.n = link.left) \
                 SELECT n FROM r",
            ),
        ),
        (
            Check::NonLinearRecursion,
            analyze_sql(
                "WITH RECURSIVE r (n) AS (SELECT obid FROM assy UNION \
                 SELECT a.n FROM r AS a JOIN r AS b ON a.n = b.n) SELECT n FROM r",
            ),
        ),
        (
            Check::RecursiveAggregate,
            analyze_sql(
                "WITH RECURSIVE r (n) AS (SELECT obid FROM assy UNION \
                 SELECT MAX(link.left) FROM r JOIN link ON r.n = link.left) SELECT n FROM r",
            ),
        ),
        (
            Check::RecursiveDistinct,
            analyze_sql(
                "WITH RECURSIVE r (n) AS (SELECT obid FROM assy UNION \
                 SELECT DISTINCT link.left FROM r JOIN link ON r.n = link.left) SELECT n FROM r",
            ),
        ),
        (
            Check::RecursiveSubqueryRef,
            analyze_sql(
                "WITH RECURSIVE r (n) AS (SELECT obid FROM assy UNION \
                 SELECT link.left FROM r JOIN link ON r.n = link.left \
                 WHERE EXISTS (SELECT * FROM r)) SELECT n FROM r",
            ),
        ),
        (
            Check::RecursiveNoDescent,
            analyze_sql(
                "WITH RECURSIVE r (n) AS (SELECT obid FROM assy UNION SELECT r.n FROM r) \
                 SELECT n FROM r",
            ),
        ),
        (
            Check::NonUnionRecursion,
            analyze_sql(
                "WITH RECURSIVE r (n) AS (SELECT obid FROM assy EXCEPT \
                 SELECT link.left FROM r JOIN link ON r.n = link.left) SELECT n FROM r",
            ),
        ),
        (
            Check::UnionAllRecursion,
            analyze_sql(
                "WITH RECURSIVE r (n) AS (SELECT obid FROM assy UNION ALL \
                 SELECT link.left FROM r JOIN link ON r.n = link.left) SELECT n FROM r",
            ),
        ),
        // -- predicate placement --------------------------------------
        (Check::MissingPredicate, placement_fixture_missing()),
        (Check::MisplacedPredicate, placement_fixture_misplaced()),
        // -- rule-table analysis --------------------------------------
        (Check::UnsatisfiableRule, {
            let mut t = RuleTable::new();
            t.add(row_rule(
                "assy",
                RowPredicate::compare("payload", CmpOp::Lt, 10i64).and(RowPredicate::compare(
                    "payload",
                    CmpOp::Gt,
                    20i64,
                )),
            ));
            analyze_rules(t)
        }),
        (Check::TautologicalRule, {
            let mut t = RuleTable::new();
            t.add(row_rule(
                "assy",
                RowPredicate::compare("payload", CmpOp::Eq, 1i64).or(RowPredicate::compare(
                    "payload",
                    CmpOp::NotEq,
                    1i64,
                )),
            ));
            analyze_rules(t)
        }),
        (Check::EmptyEffectivity, {
            let mut t = RuleTable::new();
            t.add(row_rule(
                "link",
                RowPredicate::StoredFn {
                    name: "overlaps_interval".into(),
                    args: vec![
                        FnArg::Attr("eff_from".into()),
                        FnArg::Attr("eff_to".into()),
                        FnArg::Const(Value::Int(9)),
                        FnArg::Const(Value::Int(4)),
                    ],
                },
            ));
            analyze_rules(t)
        }),
        (Check::SubsumedRule, {
            let mut t = RuleTable::new();
            t.add(row_rule(
                "assy",
                RowPredicate::compare("payload", CmpOp::Gt, 5i64),
            ));
            t.add(Rule::new(
                pdm_core::rules::UserPattern::Named("scott".into()),
                ActionKind::Query,
                "assy",
                Condition::Row(RowPredicate::compare("payload", CmpOp::Gt, 10i64)),
            ));
            analyze_rules(t)
        }),
        (Check::DuplicateRule, {
            let mut t = RuleTable::new();
            let p = RowPredicate::compare("dec", CmpOp::Eq, "+");
            t.add(row_rule("assy", p.clone()));
            t.add(row_rule("assy", p));
            analyze_rules(t)
        }),
        // -- pipeline integrity ---------------------------------------
        (Check::PrintParseDrift, drift_fixture()),
        // -- statement-level DML (recovery replay path) ----------------
        (
            Check::DmlArityMismatch,
            // spec has 3 columns; 2 values.
            analyze_statement_sql("INSERT INTO spec VALUES ('spec', 1)"),
        ),
        (
            Check::UnknownTable,
            analyze_statement_sql("UPDATE nowhere SET obid = 1"),
        ),
        (
            Check::UnknownColumn,
            analyze_statement_sql("UPDATE assy SET checkedout = TRUE WHERE ghost = 3"),
        ),
    ]
}

#[test]
fn every_check_has_a_rejecting_fixture() {
    let fx = fixtures();
    for check in Check::ALL {
        let hits: Vec<&Report> = fx
            .iter()
            .filter(|(c, _)| *c == check)
            .map(|(_, r)| r)
            .collect();
        assert!(
            !hits.is_empty(),
            "no mutation fixture exercises check '{}'",
            check.id()
        );
        for report in hits {
            assert!(
                report.flags(check),
                "fixture for '{}' does not trigger it; got:\n{report}",
                check.id()
            );
        }
    }
}

#[test]
fn clean_fixtures_stay_clean() {
    // The inverse control: a well-formed query over the paper schema and a
    // sane rule table produce no diagnostics at all.
    let r = analyze_sql(
        "SELECT assy.name FROM assy JOIN link ON assy.obid = link.right WHERE link.left = 1",
    );
    assert!(r.is_clean(), "{r}");
    let mut t = RuleTable::new();
    t.add(row_rule(
        "assy",
        RowPredicate::compare("make_or_buy", CmpOp::NotEq, "buy"),
    ));
    assert!(analyze_rules(t).is_clean());
}
