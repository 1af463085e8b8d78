//! Diagnostics model: the check registry, severities, and rendering
//! (human-readable and machine-readable JSON).
//!
//! Every analyzer finding is a [`Diagnostic`] tagged with the [`Check`]
//! that produced it. Checks carry a stable kebab-case id (the CI corpus
//! audit keys on these) and a default [`Severity`]: `Error` diagnostics
//! fail the audit, `Warning`s are surfaced but non-fatal.

use std::fmt;

/// Severity of a diagnostic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    Warning,
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// The analyzer's check registry. Each variant is one verifiable property
/// of a generated query (or of the rule table it was compiled from).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Check {
    // --- name/scope resolution -------------------------------------------
    /// A FROM clause references a table that is neither in the schema nor
    /// a CTE/alias in scope.
    UnknownTable,
    /// A column reference does not resolve against its binding's columns.
    UnknownColumn,
    /// An unqualified column name resolves in more than one FROM binding.
    AmbiguousColumn,
    /// A function call names a function neither built in nor registered.
    UnknownFunction,
    /// A CTE declares a column list whose arity differs from its body's
    /// projection.
    CteArityMismatch,
    /// The SELECT blocks of a set operation project different arities.
    SetOpArityMismatch,
    /// An aggregate function call appears directly in a WHERE clause.
    AggregateInWhere,
    /// An ORDER BY ordinal is outside 1..=projection arity.
    OrderByOutOfRange,
    // --- recursive-CTE safety --------------------------------------------
    /// Every term of a recursive CTE references the CTE: no seed term, the
    /// recursion has no base case.
    NoSeedTerm,
    /// A recursive term references the CTE more than once (SQL:1999 allows
    /// only linear recursion).
    NonLinearRecursion,
    /// A recursive term uses an aggregate or GROUP BY/HAVING.
    RecursiveAggregate,
    /// A recursive term uses SELECT DISTINCT.
    RecursiveDistinct,
    /// A subquery inside a recursive term references the CTE.
    RecursiveSubqueryRef,
    /// A recursive term never joins the recursion table to another table —
    /// the recursion cannot descend the link structure and will not
    /// terminate on any non-empty result.
    RecursiveNoDescent,
    /// Terms of a recursive CTE are combined with INTERSECT/EXCEPT.
    NonUnionRecursion,
    /// Terms are combined with UNION ALL: on DAG-shaped structures with
    /// shared subtrees the recursion may revisit nodes unboundedly.
    UnionAllRecursion,
    // --- predicate placement (§4.1 / §5.5 steps A–D) ---------------------
    /// A predicate the rule table mandates for a block is missing there.
    MissingPredicate,
    /// A rule predicate appears in a SELECT block it must not be in (the
    /// wrong-block splice the paper's ModReport counters cannot catch).
    MisplacedPredicate,
    /// The modificator's ModReport disagrees with what is actually in the
    /// query.
    ReportMismatch,
    // --- rule-table analysis ---------------------------------------------
    /// A rule's condition is unsatisfiable: it can never permit anything.
    UnsatisfiableRule,
    /// A rule's condition is a tautology: it permits everything.
    TautologicalRule,
    /// An effectivity interval in a rule is empty (lower bound above upper).
    EmptyEffectivity,
    /// A rule permits a subset of what another relevant rule already
    /// permits (rules are OR-ed, so the narrower rule is dead).
    SubsumedRule,
    /// Two rules are exact duplicates.
    DuplicateRule,
    // --- pipeline integrity ----------------------------------------------
    /// Rendering a query to SQL and re-parsing it did not reproduce the
    /// same AST (printer/parser drift).
    PrintParseDrift,
    // --- statement-level DML (the recovery replay path) -------------------
    /// An INSERT row's value count disagrees with its column list (or the
    /// target table's arity).
    DmlArityMismatch,
}

impl Check {
    /// Every check, in registry order.
    pub const ALL: [Check; 26] = [
        Check::UnknownTable,
        Check::UnknownColumn,
        Check::AmbiguousColumn,
        Check::UnknownFunction,
        Check::CteArityMismatch,
        Check::SetOpArityMismatch,
        Check::AggregateInWhere,
        Check::OrderByOutOfRange,
        Check::NoSeedTerm,
        Check::NonLinearRecursion,
        Check::RecursiveAggregate,
        Check::RecursiveDistinct,
        Check::RecursiveSubqueryRef,
        Check::RecursiveNoDescent,
        Check::NonUnionRecursion,
        Check::UnionAllRecursion,
        Check::MissingPredicate,
        Check::MisplacedPredicate,
        Check::ReportMismatch,
        Check::UnsatisfiableRule,
        Check::TautologicalRule,
        Check::EmptyEffectivity,
        Check::SubsumedRule,
        Check::DuplicateRule,
        Check::PrintParseDrift,
        Check::DmlArityMismatch,
    ];

    /// Stable kebab-case identifier (CI and JSON output key on these).
    pub fn id(self) -> &'static str {
        match self {
            Check::UnknownTable => "unknown-table",
            Check::UnknownColumn => "unknown-column",
            Check::AmbiguousColumn => "ambiguous-column",
            Check::UnknownFunction => "unknown-function",
            Check::CteArityMismatch => "cte-arity-mismatch",
            Check::SetOpArityMismatch => "setop-arity-mismatch",
            Check::AggregateInWhere => "aggregate-in-where",
            Check::OrderByOutOfRange => "order-by-out-of-range",
            Check::NoSeedTerm => "no-seed-term",
            Check::NonLinearRecursion => "non-linear-recursion",
            Check::RecursiveAggregate => "recursive-aggregate",
            Check::RecursiveDistinct => "recursive-distinct",
            Check::RecursiveSubqueryRef => "recursive-subquery-ref",
            Check::RecursiveNoDescent => "recursive-no-descent",
            Check::NonUnionRecursion => "non-union-recursion",
            Check::UnionAllRecursion => "union-all-recursion",
            Check::MissingPredicate => "missing-predicate",
            Check::MisplacedPredicate => "misplaced-predicate",
            Check::ReportMismatch => "report-mismatch",
            Check::UnsatisfiableRule => "unsatisfiable-rule",
            Check::TautologicalRule => "tautological-rule",
            Check::EmptyEffectivity => "empty-effectivity",
            Check::SubsumedRule => "subsumed-rule",
            Check::DuplicateRule => "duplicate-rule",
            Check::PrintParseDrift => "print-parse-drift",
            Check::DmlArityMismatch => "dml-arity-mismatch",
        }
    }

    /// One-line description shown by `pdm-analyze --list-checks`.
    pub fn description(self) -> &'static str {
        match self {
            Check::UnknownTable => "every table reference resolves against schema, CTEs, aliases",
            Check::UnknownColumn => "every column reference resolves against its binding",
            Check::AmbiguousColumn => "unqualified columns resolve in exactly one binding",
            Check::UnknownFunction => "function calls name a registered or built-in function",
            Check::CteArityMismatch => "CTE column lists match their body's projection arity",
            Check::SetOpArityMismatch => "all branches of a set operation project the same arity",
            Check::AggregateInWhere => "no aggregate call directly inside a WHERE clause",
            Check::OrderByOutOfRange => "ORDER BY ordinals stay within the projection",
            Check::NoSeedTerm => "a recursive CTE has at least one non-recursive seed term",
            Check::NonLinearRecursion => "each recursive term references the CTE exactly once",
            Check::RecursiveAggregate => "no aggregate/GROUP BY inside a recursive term",
            Check::RecursiveDistinct => "no SELECT DISTINCT inside a recursive term",
            Check::RecursiveSubqueryRef => "no subquery over the CTE inside a recursive term",
            Check::RecursiveNoDescent => "recursive terms join the CTE to a link table (descent)",
            Check::NonUnionRecursion => "recursive terms are combined with UNION",
            Check::UnionAllRecursion => "UNION ALL recursion may not terminate on DAGs",
            Check::MissingPredicate => "every mandated rule predicate is present in its block",
            Check::MisplacedPredicate => "no rule predicate sits in a block it is banned from",
            Check::ReportMismatch => "the ModReport matches the query's actual injections",
            Check::UnsatisfiableRule => "no rule condition is unsatisfiable",
            Check::TautologicalRule => "no rule condition is a tautology",
            Check::EmptyEffectivity => "no rule carries an empty effectivity interval",
            Check::SubsumedRule => "no rule is subsumed by another relevant rule",
            Check::DuplicateRule => "no two rules are identical",
            Check::PrintParseDrift => "rendered SQL re-parses to the identical AST",
            Check::DmlArityMismatch => "INSERT rows match their column list / table arity",
        }
    }

    /// Default severity of diagnostics this check emits.
    pub fn severity(self) -> Severity {
        match self {
            Check::UnknownFunction
            | Check::UnionAllRecursion
            | Check::TautologicalRule
            | Check::SubsumedRule
            | Check::DuplicateRule => Severity::Warning,
            _ => Severity::Error,
        }
    }
}

/// One analyzer finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    pub check: Check,
    pub severity: Severity,
    pub message: String,
    /// Human-readable location: a [`BlockId`](pdm_core::query::modificator::BlockId)
    /// rendering, a rule index, or empty for whole-query findings.
    pub location: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} [{}] {}",
            self.severity,
            self.check.id(),
            self.message
        )?;
        if !self.location.is_empty() {
            write!(f, " (at {})", self.location)?;
        }
        Ok(())
    }
}

/// Accumulated diagnostics of one analysis run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Report {
    pub diagnostics: Vec<Diagnostic>,
}

impl Report {
    pub fn new() -> Self {
        Report::default()
    }

    /// Emit a diagnostic with the check's default severity.
    pub fn emit(&mut self, check: Check, message: impl Into<String>) {
        self.emit_at(check, message, String::new());
    }

    /// Emit a diagnostic pinned to a location.
    pub fn emit_at(
        &mut self,
        check: Check,
        message: impl Into<String>,
        location: impl Into<String>,
    ) {
        self.diagnostics.push(Diagnostic {
            check,
            severity: check.severity(),
            message: message.into(),
            location: location.into(),
        });
    }

    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    pub fn has_errors(&self) -> bool {
        self.diagnostics
            .iter()
            .any(|d| d.severity == Severity::Error)
    }

    pub fn errors(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
    }

    /// True if at least one diagnostic of `check` was emitted — the
    /// predicate the mutation-sensitivity tests assert on.
    pub fn flags(&self, check: Check) -> bool {
        self.diagnostics.iter().any(|d| d.check == check)
    }

    pub fn extend(&mut self, other: Report) {
        self.diagnostics.extend(other.diagnostics);
    }

    /// Machine-readable rendering: a JSON array of diagnostic objects.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[");
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"check\":\"{}\",\"severity\":\"{}\",\"message\":\"{}\",\"location\":\"{}\"}}",
                d.check.id(),
                d.severity,
                json_escape(&d.message),
                json_escape(&d.location)
            ));
        }
        out.push(']');
        out
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.diagnostics.is_empty() {
            return write!(f, "clean");
        }
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            write!(f, "{d}")?;
        }
        Ok(())
    }
}

/// Minimal JSON string escaping.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_ids_are_unique_and_kebab() {
        let mut seen = std::collections::HashSet::new();
        for c in Check::ALL {
            assert!(seen.insert(c.id()), "duplicate check id {}", c.id());
            assert!(
                c.id()
                    .chars()
                    .all(|ch| ch.is_ascii_lowercase() || ch.is_ascii_digit() || ch == '-'),
                "non-kebab id {}",
                c.id()
            );
            assert!(!c.description().is_empty());
        }
        assert_eq!(seen.len(), Check::ALL.len());
    }

    #[test]
    fn report_severity_partition() {
        let mut r = Report::new();
        r.emit(Check::UnknownColumn, "no such column");
        r.emit(Check::SubsumedRule, "redundant");
        assert!(r.has_errors());
        assert_eq!(r.errors().count(), 1);
        assert!(r.flags(Check::SubsumedRule));
        assert!(!r.flags(Check::NoSeedTerm));
    }

    #[test]
    fn json_escapes_specials() {
        let mut r = Report::new();
        r.emit(Check::UnknownColumn, "bad \"name\"\nhere");
        let json = r.to_json();
        assert!(json.contains("\\\"name\\\""));
        assert!(json.contains("\\n"));
        assert!(json.starts_with('['));
        assert!(json.ends_with(']'));
    }
}
