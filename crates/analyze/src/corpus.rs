//! The audit corpus: one instance of every query shape the core generators
//! emit — unmodified and rule-modified — paired with the rule table, user,
//! and action that produced it.
//!
//! The `pdm-analyze` CLI runs the full analyzer over this corpus and fails
//! on any diagnostic; CI runs the CLI. The corpus is the contract that the
//! generator → modificator pipeline stays statically clean as it evolves.

use std::collections::HashSet;

use pdm_sql::ast::{Query, Statement};

use pdm_core::query::modificator::{ModReport, Modificator};
use pdm_core::query::{navigational, recursive};
use pdm_core::rules::table::RuleTable;
use pdm_core::rules::{paper_rules, visibility_rules, ActionKind};

/// One corpus member: a generated query plus the context needed to verify
/// predicate placement (if it was modified).
pub struct CorpusEntry {
    /// Stable scenario name (used in CLI output and JSON).
    pub name: &'static str,
    pub query: Query,
    /// Rendered SQL, for display and for the print→parse drift check.
    pub sql: String,
    /// The rule table the modificator ran with; `None` for unmodified
    /// queries (placement checks are skipped).
    pub rules: Option<RuleTable>,
    pub user: &'static str,
    pub action: ActionKind,
    /// The modificator's own account of its injections, cross-checked
    /// against the analyzer's re-derivation.
    pub report: Option<ModReport>,
}

fn unmodified(name: &'static str, action: ActionKind, query: Query) -> CorpusEntry {
    let sql = query.to_string();
    CorpusEntry {
        name,
        query,
        sql,
        rules: None,
        user: "scott",
        action,
        report: None,
    }
}

fn modified(
    name: &'static str,
    action: ActionKind,
    mut query: Query,
    rules: RuleTable,
    recursive: bool,
) -> CorpusEntry {
    let views = HashSet::new();
    let m = Modificator::new(&rules, "scott", action, &views);
    let report = if recursive {
        m.modify_recursive(&mut query)
    } else {
        m.modify_navigational(&mut query)
    }
    .expect("corpus query modification cannot fail");
    let sql = query.to_string();
    CorpusEntry {
        name,
        query,
        sql,
        rules: Some(rules),
        user: "scott",
        action,
        report: Some(report),
    }
}

/// Build the full corpus: every generator shape, plus the two modification
/// paths over representative rule sets.
pub fn build_corpus() -> Vec<CorpusEntry> {
    vec![
        unmodified("expand", ActionKind::Expand, navigational::expand_query(42)),
        unmodified(
            "expand-many",
            ActionKind::Expand,
            navigational::expand_many_query(&[1, 2, 3], "link"),
        ),
        unmodified(
            "query-all",
            ActionKind::Query,
            navigational::query_all_query(1),
        ),
        unmodified(
            "fetch-node",
            ActionKind::Query,
            navigational::fetch_node_query(7),
        ),
        unmodified("mle", ActionKind::MultiLevelExpand, recursive::mle_query(1)),
        unmodified(
            "mle-with-root",
            ActionKind::MultiLevelExpand,
            recursive::mle_query_with_root(1, true),
        ),
        modified(
            "expand-modified",
            ActionKind::Expand,
            navigational::expand_query(42),
            visibility_rules(),
            false,
        ),
        modified(
            "mle-modified",
            ActionKind::MultiLevelExpand,
            recursive::mle_query(1),
            paper_rules(),
            true,
        ),
    ]
}

/// One member of the statement corpus: a DML shape the durability layer
/// logs and crash recovery re-executes verbatim.
pub struct StatementEntry {
    pub name: &'static str,
    pub statement: Statement,
    pub sql: String,
}

fn statement(name: &'static str, sql: &str) -> StatementEntry {
    let statement =
        pdm_sql::parser::parse_statement(sql).expect("statement corpus member must parse");
    // Store the canonical rendering (what the WAL would log), not the
    // hand-written source.
    let sql = statement.to_string();
    StatementEntry {
        name,
        statement,
        sql,
    }
}

/// The recovery replay path's statement shapes: one instance of every DML
/// form the WAL records — the check-out flag UPDATEs (grant and check-in/
/// sweep directions, single id and id list), and the workload DML mix the
/// chaos harness commits. If recovery replays it, its shape is audited
/// here.
pub fn recovery_statement_corpus() -> Vec<StatementEntry> {
    vec![
        statement(
            "checkout-flag-grant",
            "UPDATE assy SET checkedout = TRUE WHERE obid IN (1, 4, 13)",
        ),
        statement(
            "checkout-flag-grant-comp",
            "UPDATE comp SET checkedout = TRUE WHERE obid IN (14, 15)",
        ),
        statement(
            "recovery-sweep",
            "UPDATE assy SET checkedout = FALSE WHERE obid IN (1, 4, 13)",
        ),
        statement(
            "checkin-clear-comp",
            "UPDATE comp SET checkedout = FALSE WHERE obid IN (14, 15)",
        ),
        statement(
            "workload-payload-update",
            "UPDATE assy SET payload = 'replayed' WHERE obid = 7",
        ),
        statement(
            "workload-range-rename",
            "UPDATE comp SET name = 'swept' WHERE obid >= 14 AND obid <= 16",
        ),
        statement(
            "workload-spec-insert",
            "INSERT INTO spec VALUES ('spec', 900001, 'chaos')",
        ),
        statement(
            "workload-spec-delete",
            "DELETE FROM spec WHERE obid = 900001",
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn statement_corpus_names_are_unique() {
        let corpus = recovery_statement_corpus();
        assert!(corpus.len() >= 8);
        let mut names: Vec<_> = corpus.iter().map(|e| e.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), recovery_statement_corpus().len());
    }

    #[test]
    fn corpus_covers_both_pipelines() {
        let corpus = build_corpus();
        assert!(corpus.len() >= 8);
        assert!(corpus.iter().any(|e| e.report.is_some()));
        assert!(corpus.iter().any(|e| e.query.with.is_some()));
        // Names are unique (JSON output keys on them).
        let mut names: Vec<_> = corpus.iter().map(|e| e.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), corpus.len());
    }

    #[test]
    fn corpus_rule_tables_are_clean() {
        let mut report = crate::diag::Report::new();
        crate::rules::check_rule_table(
            &paper_rules(),
            &crate::schema::SchemaInfo::paper(),
            &mut report,
        );
        assert!(report.is_clean(), "{report}");
    }
}
