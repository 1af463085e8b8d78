//! `pdm-analyze`: static verification of the rule → SQL compilation
//! pipeline.
//!
//! The paper's query modificator (§4.1, §5.5) splices access-rule
//! predicates into generated SQL; a bug there silently widens or narrows
//! what a user can see. This crate checks any generated [`Query`] **without
//! executing it**:
//!
//! 1. **name/scope resolution** ([`resolve`]) — every table, column,
//!    alias, CTE projection, and correlated reference binds against the
//!    schema;
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
pub mod resolve;
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

    /// Run the query-shape checks: resolution, recursion safety, and
    /// print→parse drift.
    pub fn analyze(&self, query: &Query) -> Report {
        let mut report = Report::new();
        resolve::check_query(query, &self.schema, &mut report);
        recursion::check_recursion(query, &mut report);
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
    /// target/column resolution, INSERT arity, expression analysis in the
    /// target table's scope, and statement print→parse drift.
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
    /// view whose link table is registered with `link`'s columns: every
    /// build resolves strictly and is clean.
    #[test]
    fn generated_queries_stay_clean() {
        let mut schema = SchemaInfo::paper();
        schema.add_table(
            "alt_link",
            &[
                "type", "obid", "left", "right", "eff_from", "eff_to", "strc_opt",
            ],
        );
        for query in [
            pdm_core::query::navigational::expand_query_in(42, pdm_core::query::T_LINK),
            pdm_core::query::navigational::expand_many_query(&[1, 2], "alt_link"),
            pdm_core::query::recursive::mle_query(1),
        ] {
            let mut report = Report::new();
            resolve::check_query(&query, &schema, &mut report);
            recursion::check_recursion(&query, &mut report);
            assert!(report.is_clean(), "{report}\nSQL: {query}");
        }
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
