//! `pdm-analyze`: static verification of the rule → SQL compilation
//! pipeline.
//!
//! The paper's query modificator (§4.1, §5.5) splices access-rule
//! predicates into generated SQL; a bug there silently widens or narrows
//! what a user can see. This crate checks any generated [`Query`] **without
//! executing it**:
//!
//! 1. **name/scope resolution** through the engine's binder — the query
//!    compiles (`pdm_sql::exec::explain::explain_query`, no row read)
//!    against [`SchemaInfo`]'s database, and its first bind error becomes
//!    the check of its family (`Check::of_engine_error`): every table,
//!    column, alias, view, CTE projection, function and correlated
//!    reference binds, and set-operation, CTE and recursive-term arities,
//!    aggregate placement and ORDER BY keys hold;
//! 2. **recursive-CTE safety** ([`recursion`]) — the §5.2 `WITH RECURSIVE`
//!    shape is linear, seeded, aggregate-free, and actually descends;
//! 3. **predicate placement** ([`placement`]) — re-derives from the rule
//!    table which condition class must land in which SELECT block (§5.5
//!    steps A–D) and diffs that against the query's WHERE clauses; the
//!    query is the only evidence (the modificator reports nothing), and
//!    [`placement::BlockId`] is this crate's numbering of its blocks;
//! 4. **rule-table analysis** ([`rules`]) — unsatisfiable, tautological,
//!    empty-effectivity, duplicate, and subsumed rules;
//! 5. **print→parse drift** — the rendered SQL must re-parse to the same
//!    AST, or every other check is validating a fiction.
//!
//! Wired at two layers: the `pdm-analyze` CLI auditing the fixed
//! [`corpus`] — one instance of every generator shape — and a CI job
//! failing on any diagnostic.

pub mod corpus;
pub mod diag;
pub mod placement;
pub mod recursion;
pub mod rules;
pub mod schema;
pub mod statement;

pub use diag::{Check, Diagnostic, Report, Severity};
pub use schema::SchemaInfo;

use pdm_core::rules::table::RuleTable;
use pdm_core::rules::ActionKind;
use pdm_sql::ast::{Query, Statement};

/// Facade bundling a schema environment with the per-query checks.
pub struct Analyzer {
    schema: SchemaInfo,
}

impl Analyzer {
    pub fn new(schema: SchemaInfo) -> Self {
        Analyzer { schema }
    }

    /// Analyzer over the strict Figure-2 paper schema.
    pub fn paper() -> Self {
        Analyzer::new(SchemaInfo::paper())
    }

    pub fn schema(&self) -> &SchemaInfo {
        &self.schema
    }

    /// Run the query-shape checks: recursion safety, resolution, and
    /// print→parse drift.
    pub fn analyze(&self, query: &Query) -> Report {
        let mut report = Report::new();
        statement::check_query(query, &self.schema, &mut report);
        self.check_drift(query, &mut report);
        report
    }

    /// [`Self::analyze`] plus predicate-placement verification against the
    /// rule table that (supposedly) modified the query.
    pub fn analyze_with_rules(
        &self,
        query: &Query,
        rules: &RuleTable,
        user: &str,
        action: ActionKind,
    ) -> Report {
        let mut report = self.analyze(query);
        placement::check_placement(query, rules, user, action, &mut report);
        report
    }

    /// Statement-level checks (the DML shapes the recovery path replays):
    /// the statement run on a copy of the schema's database — target,
    /// columns, INSERT arity, expressions — and statement print→parse
    /// drift.
    pub fn analyze_statement(&self, stmt: &Statement) -> Report {
        let mut report = Report::new();
        statement::check_statement(stmt, &self.schema, &mut report);
        report
    }

    /// Rule-table analysis alone (no query involved).
    pub fn analyze_rule_table(&self, rules: &RuleTable) -> Report {
        let mut report = Report::new();
        rules::check_rule_table(rules, &self.schema, &mut report);
        report
    }

    /// The rendered SQL must parse back to a structurally identical AST.
    fn check_drift(&self, query: &Query, report: &mut Report) {
        let sql = query.to_string();
        match pdm_sql::parser::parse_query(&sql) {
            Ok(reparsed) => {
                if reparsed != *query {
                    report.emit(
                        Check::PrintParseDrift,
                        "rendered SQL re-parses to a different AST".to_string(),
                    );
                }
            }
            Err(e) => report.emit(
                Check::PrintParseDrift,
                format!("rendered SQL does not re-parse: {e}"),
            ),
        }
    }
}

/// Audit the whole generator corpus: per-entry query checks, placement
/// verification where a rule table applies, and rule-table analysis.
pub fn audit_corpus() -> Vec<(corpus::CorpusEntry, Report)> {
    let analyzer = Analyzer::paper();
    corpus::build_corpus()
        .into_iter()
        .map(|entry| {
            let mut report = match &entry.rules {
                Some(rules) => {
                    let mut r =
                        analyzer.analyze_with_rules(&entry.query, rules, entry.user, entry.action);
                    r.extend(analyzer.analyze_rule_table(rules));
                    r
                }
                None => analyzer.analyze(&entry.query),
            };
            // The stored SQL must match what the AST renders now.
            if entry.sql != entry.query.to_string() {
                report.emit(
                    Check::PrintParseDrift,
                    format!("corpus entry '{}' SQL text is stale", entry.name),
                );
            }
            (entry, report)
        })
        .collect()
}

/// Audit the recovery-path statement corpus: every DML shape the WAL logs
/// and recovery re-executes must be statically clean, including
/// statement-level print→parse round-tripping (recovery replays the
/// rendered SQL).
pub fn audit_statement_corpus() -> Vec<(corpus::StatementEntry, Report)> {
    let analyzer = Analyzer::paper();
    corpus::recovery_statement_corpus()
        .into_iter()
        .map(|entry| {
            let mut report = analyzer.analyze_statement(&entry.statement);
            if entry.sql != entry.statement.to_string() {
                report.emit(
                    Check::PrintParseDrift,
                    format!("statement corpus entry '{}' SQL text is stale", entry.name),
                );
            }
            (entry, report)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn statement_corpus_audit_is_clean() {
        for (entry, report) in audit_statement_corpus() {
            assert!(
                report.is_clean(),
                "statement corpus entry '{}' has diagnostics:\n{report}\nSQL: {}",
                entry.name,
                entry.sql
            );
        }
    }

    #[test]
    fn corpus_audit_is_clean() {
        for (entry, report) in audit_corpus() {
            assert!(
                report.is_clean(),
                "corpus entry '{}' has diagnostics:\n{report}\nSQL: {}",
                entry.name,
                entry.sql
            );
        }
    }

    /// The generators, one of them pointed at an alternative structure
    /// view whose link table is created with `link`'s columns: every build
    /// resolves strictly and is clean.
    #[test]
    fn generated_queries_stay_clean() {
        let mut db = SchemaInfo::paper().database().clone();
        db.execute(
            "CREATE TABLE alt_link (type VARCHAR NOT NULL, obid INTEGER NOT NULL, \
             left INTEGER, right INTEGER, eff_from INTEGER, eff_to INTEGER, strc_opt VARCHAR)",
        )
        .expect("create alt_link");
        let analyzer = Analyzer::new(SchemaInfo::from_database(&db));
        for query in [
            pdm_core::query::navigational::expand_query_in(42, pdm_core::query::T_LINK),
            pdm_core::query::navigational::expand_many_query(&[1, 2], "alt_link"),
            pdm_core::query::recursive::mle_query(1),
        ] {
            let report = analyzer.analyze(&query);
            assert!(report.is_clean(), "{report}\nSQL: {query}");
        }
    }

    /// Every engine error becomes exactly one diagnostic, of its family's
    /// check: the first error of a statement, and none twice (a recursive
    /// shape that `recursion` reports too is reported once).
    #[test]
    fn every_engine_error_becomes_one_diagnostic() {
        let analyzer = Analyzer::paper();
        for (sql, checks) in [
            // Two faults: the first one the binder meets is reported.
            (
                "SELECT ghost FROM nonesuch WHERE COUNT(*) > 0",
                &[Check::UnknownTable][..],
            ),
            ("SELECT x.* FROM assy", &[Check::UnknownTable]),
            ("SELECT upper(*) FROM assy", &[Check::UnknownFunction]),
            (
                "SELECT obid FROM assy UNION SELECT obid FROM comp ORDER BY obid + 1",
                &[Check::OrderByOutOfRange],
            ),
            (
                "WITH RECURSIVE r (n) AS (SELECT obid FROM assy UNION \
                 SELECT link.left, 1 FROM r JOIN link ON r.n = link.left) SELECT n FROM r",
                &[Check::CteArityMismatch],
            ),
            (
                "WITH RECURSIVE r (n) AS (SELECT obid FROM assy INTERSECT \
                 SELECT link.left FROM r JOIN link ON r.n = link.left) SELECT n FROM r",
                &[Check::NonUnionRecursion],
            ),
            (
                "INSERT INTO spec (type, type) VALUES ('spec', 'spec')",
                &[Check::DmlArityMismatch],
            ),
            (
                "INSERT INTO spec VALUES ('spec', 1, 'a'), ('spec', 2)",
                &[Check::DmlArityMismatch],
            ),
            ("DROP TABLE nonesuch", &[Check::UnknownTable]),
            ("CREATE INDEX ON assy (ghost)", &[Check::UnknownColumn]),
        ] {
            let stmt = pdm_sql::parser::parse_statement(sql).expect("parse");
            let report = analyzer.analyze_statement(&stmt);
            let flagged: Vec<Check> = report.diagnostics.iter().map(|d| d.check).collect();
            assert_eq!(flagged, checks, "{sql}: {report}");
        }
    }

    /// A view compiles inline, so a query over one resolves its columns.
    #[test]
    fn views_resolve_through_the_binder() {
        let mut db = SchemaInfo::paper().database().clone();
        db.execute("CREATE VIEW makes AS SELECT obid, name FROM assy WHERE make_or_buy = 'make'")
            .expect("create view");
        let analyzer = Analyzer::new(SchemaInfo::from_database(&db));
        let query = |sql| pdm_sql::parser::parse_query(sql).expect("parse");
        assert!(analyzer
            .analyze(&query("SELECT makes.name FROM makes WHERE obid > 1"))
            .is_clean());
        let report = analyzer.analyze(&query("SELECT make_or_buy FROM makes"));
        assert!(report.flags(Check::UnknownColumn), "{report}");
    }

    #[test]
    fn drift_check_catches_unrenderable_query() {
        // A function whose name contains a space renders as SQL that cannot
        // re-parse — the drift check must see it.
        use pdm_sql::ast::{Expr, Select, SelectItem, SetExpr, TableWithJoins};
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
        let report = Analyzer::new(SchemaInfo::paper()).analyze(&q);
        assert!(report.flags(Check::PrintParseDrift), "{report}");
    }
}

/// Name/scope resolution, one case per test: every query compiles through
/// the engine's binder ([`Analyzer::analyze`]), and each test pins the exact
/// checks it flags.
#[cfg(test)]
mod resolve {
    mod tests {
        use crate::{Analyzer, Check, Report};

        fn run(sql: &str) -> Report {
            let query = pdm_sql::parser::parse_query(sql).expect("parse");
            Analyzer::paper().analyze(&query)
        }

        fn flagged(sql: &str) -> Vec<Check> {
            run(sql).diagnostics.iter().map(|d| d.check).collect()
        }

        #[test]
        fn clean_join_resolves() {
            let r = run(
                "SELECT assy.name FROM link JOIN assy ON link.right = assy.obid \
                 WHERE link.left = 1",
            );
            assert!(r.is_clean(), "{r}");
        }

        #[test]
        fn unknown_table_flagged() {
            assert_eq!(flagged("SELECT 1 FROM nonesuch"), [Check::UnknownTable]);
        }

        #[test]
        fn unknown_column_flagged() {
            assert_eq!(
                flagged("SELECT assy.nonexistent FROM assy"),
                [Check::UnknownColumn]
            );
        }

        #[test]
        fn ambiguous_unqualified_column() {
            assert_eq!(
                flagged("SELECT obid FROM assy, comp"),
                [Check::AmbiguousColumn]
            );
        }

        #[test]
        fn correlated_exists_resolves_outer_binding() {
            let r = run(
                "SELECT comp.name FROM comp WHERE EXISTS (SELECT * FROM specified_by AS s \
                 JOIN spec ON s.right = spec.obid WHERE s.left = comp.obid)",
            );
            assert!(r.is_clean(), "{r}");
        }

        #[test]
        fn cte_projection_visible() {
            let r = run(
                "WITH RECURSIVE rtbl (a, b) AS (SELECT obid, name FROM assy UNION \
                 SELECT comp.obid, comp.name FROM rtbl JOIN link ON rtbl.a = link.left \
                 JOIN comp ON link.right = comp.obid) SELECT a, b FROM rtbl",
            );
            assert!(r.is_clean(), "{r}");
            assert_eq!(
                flagged(
                    "WITH RECURSIVE rtbl (a) AS (SELECT obid FROM assy) SELECT missing FROM rtbl"
                ),
                [Check::UnknownColumn]
            );
        }

        #[test]
        fn cte_arity_mismatch_flagged() {
            assert_eq!(
                flagged(
                    "WITH RECURSIVE rtbl (a, b, c) AS (SELECT obid, name FROM assy) \
                     SELECT a FROM rtbl"
                ),
                [Check::CteArityMismatch]
            );
        }

        #[test]
        fn setop_arity_mismatch_flagged() {
            assert_eq!(
                flagged("SELECT obid, name FROM assy UNION SELECT obid FROM comp"),
                [Check::SetOpArityMismatch]
            );
        }

        #[test]
        fn aggregate_in_where_flagged() {
            assert_eq!(
                flagged("SELECT obid FROM assy WHERE COUNT(*) > 1"),
                [Check::AggregateInWhere]
            );
        }

        #[test]
        fn order_by_ordinal_bounds() {
            for sql in [
                "SELECT obid FROM assy ORDER BY 2",
                "SELECT obid FROM assy ORDER BY 0",
            ] {
                assert_eq!(flagged(sql), [Check::OrderByOutOfRange], "{sql}");
            }
            assert!(run("SELECT obid FROM assy ORDER BY 1").is_clean());
        }

        #[test]
        fn unknown_function_is_warning() {
            let r = run("SELECT MYSTERY(obid) FROM assy");
            let checks: Vec<Check> = r.diagnostics.iter().map(|d| d.check).collect();
            assert_eq!(checks, [Check::UnknownFunction], "{r}");
            assert!(!r.has_errors());
        }
    }
}
