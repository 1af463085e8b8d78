//! Rule-table analysis: constant folding, interval reasoning, and
//! satisfiability checks over [`RowPredicate`] conditions.
//!
//! Rules only *permit* (the system is negative-biased, §3.1 footnote 6), so
//! defective rules fail silently at runtime: an unsatisfiable condition
//! permits nothing, a tautological one permits everything, a subsumed rule
//! is dead weight in every OR-disjunction the modificator builds. None of
//! those surface as SQL errors — only this static pass catches them.
//!
//! The engine enumerates truth assignments over the predicate's distinct
//! atoms (≤ 2^12) and prunes assignments that are inconsistent under
//! per-attribute domain reasoning: numeric interval tracking for
//! comparisons, equality/exclusion sets for text and booleans, LIKE
//! matching against forced constants, and constant evaluation of stored
//! functions through the same registry the server uses. The analysis is
//! *modulo NULL*: a predicate is "satisfiable" if some non-NULL attribute
//! valuation satisfies it. Unsat-over-reals implies unsat-over-ints, so
//! every `UnsatisfiableRule` diagnostic is sound.

use pdm_sql::Value;

use pdm_core::rules::condition::{CmpOp, Condition, FnArg, RowPredicate};
use pdm_core::rules::like_match;
use pdm_core::rules::table::RuleTable;
use pdm_core::rules::Rule;

use crate::diag::{Check, Report};
use crate::schema::SchemaInfo;

/// Atom-count ceiling for assignment enumeration (2^12 = 4096 cases).
const MAX_ATOMS: usize = 12;

/// Analyze every rule of the table, plus pairwise duplicate/subsumption
/// checks.
pub fn check_rule_table(rules: &RuleTable, schema: &SchemaInfo, report: &mut Report) {
    let all: Vec<&Rule> = rules.iter().collect();
    for (i, rule) in all.iter().enumerate() {
        check_rule(i, rule, schema, report);
    }
    for (i, a) in all.iter().enumerate() {
        for (j, b) in all.iter().enumerate() {
            if i < j
                && a.user == b.user
                && a.action == b.action
                && a.object_type == b.object_type
                && a.condition == b.condition
            {
                report.emit_at(
                    Check::DuplicateRule,
                    format!("rule #{j} duplicates rule #{i} ({})", b.translated_sql),
                    format!("rule #{j}"),
                );
            }
        }
    }
    check_subsumption(&all, report);
}

fn check_rule(idx: usize, rule: &Rule, schema: &SchemaInfo, report: &mut Report) {
    let loc = format!("rule #{idx} on '{}'", rule.object_type);
    match &rule.condition {
        Condition::Row(pred)
        | Condition::ForAllRows {
            predicate: pred, ..
        } => {
            check_effectivity(pred, &loc, report);
            let mut atoms = Atoms::default();
            let form = intern(pred, &mut atoms);
            let sat = feasible(&form, &atoms);
            if sat == Some(false) {
                report.emit_at(
                    Check::UnsatisfiableRule,
                    format!(
                        "condition can never hold — the rule permits nothing: {}",
                        rule.translated_sql
                    ),
                    loc.clone(),
                );
            } else if sat == Some(true)
                && feasible(&Form::Not(Box::new(form)), &atoms) == Some(false)
            {
                report.emit_at(
                    Check::TautologicalRule,
                    format!(
                        "condition always holds — the rule permits everything: {}",
                        rule.translated_sql
                    ),
                    loc.clone(),
                );
            }
        }
        Condition::ExistsStructure {
            object_table,
            relation_table,
            related_table,
        } => {
            let catalog = &schema.database().catalog;
            for t in [object_table, relation_table, related_table] {
                if !catalog.has_table(t) && !catalog.has_view(t) {
                    report.emit_at(
                        Check::UnknownTable,
                        format!("∃structure rule references unknown table '{t}'"),
                        loc.clone(),
                    );
                }
            }
        }
        Condition::TreeAggregate {
            func, op, value, ..
        } => {
            // A COUNT aggregate ranges over [0, ∞): comparisons against
            // negative bounds fold to constants.
            if *func == pdm_core::rules::condition::AggFunc::Count {
                let v = *value;
                let never = match op {
                    CmpOp::Lt => v <= 0.0,
                    CmpOp::LtEq | CmpOp::Eq => v < 0.0,
                    _ => false,
                };
                let always = match op {
                    CmpOp::GtEq => v <= 0.0,
                    CmpOp::Gt | CmpOp::NotEq => v < 0.0,
                    _ => false,
                };
                if never {
                    report.emit_at(
                        Check::UnsatisfiableRule,
                        format!("COUNT(*) {op} {v} can never hold (counts are non-negative)"),
                        loc.clone(),
                    );
                } else if always {
                    report.emit_at(
                        Check::TautologicalRule,
                        format!("COUNT(*) {op} {v} always holds (counts are non-negative)"),
                        loc.clone(),
                    );
                }
            }
        }
    }
}

/// Flag `overlaps_interval(.., .., lo, hi)` atoms whose constant selection
/// interval is empty — the §3.1 example-3 effectivity check can never pass.
fn check_effectivity(pred: &RowPredicate, loc: &str, report: &mut Report) {
    walk(pred, &mut |p| {
        if let RowPredicate::StoredFn { name, args } = p {
            if name.eq_ignore_ascii_case("overlaps_interval") && args.len() == 4 {
                let bound = |a: &FnArg| match a {
                    FnArg::Const(Value::Int(i)) => Some(*i as f64),
                    FnArg::Const(Value::Float(f)) => Some(*f),
                    _ => None,
                };
                if let (Some(lo), Some(hi)) = (bound(&args[2]), bound(&args[3])) {
                    if lo > hi {
                        report.emit_at(
                            Check::EmptyEffectivity,
                            format!("effectivity selection interval [{lo}, {hi}] is empty"),
                            loc.to_string(),
                        );
                    }
                }
            }
        }
    });
}

fn walk<'a>(pred: &'a RowPredicate, f: &mut impl FnMut(&'a RowPredicate)) {
    f(pred);
    match pred {
        RowPredicate::And(a, b) | RowPredicate::Or(a, b) => {
            walk(a, f);
            walk(b, f);
        }
        RowPredicate::Not(p) => walk(p, f),
        _ => {}
    }
}

/// Pairwise subsumption: rules are OR-ed when relevant together, so if
/// rule A applies whenever B does and A's condition is implied by B's,
/// B never permits anything A would not — B is dead.
fn check_subsumption(all: &[&Rule], report: &mut Report) {
    for (bi, b) in all.iter().enumerate() {
        for (ai, a) in all.iter().enumerate() {
            if ai == bi || a.object_type != b.object_type {
                continue;
            }
            // A must cover B's applicability...
            let user_covers = a.user == pdm_core::rules::UserPattern::Any || a.user == b.user;
            let action_covers =
                a.action == pdm_core::rules::ActionKind::Access || a.action == b.action;
            if !user_covers || !action_covers {
                continue;
            }
            // ...and both must be Row-class (tree conditions are evaluated
            // against the whole tree; implication reasoning does not apply).
            let (Condition::Row(pa), Condition::Row(pb)) = (&a.condition, &b.condition) else {
                continue;
            };
            if pa == pb && ai > bi {
                continue; // identical conditions: report only one direction
            }
            // B ⊆ A  ⟺  B ∧ ¬A unsatisfiable (and B itself satisfiable).
            let mut atoms = Atoms::default();
            let fb = intern(pb, &mut atoms);
            let fa = intern(pa, &mut atoms);
            let b_and_not_a = Form::And(Box::new(fb.clone()), Box::new(Form::Not(Box::new(fa))));
            if feasible(&fb, &atoms) == Some(true) && feasible(&b_and_not_a, &atoms) == Some(false)
            {
                report.emit_at(
                    Check::SubsumedRule,
                    format!(
                        "rule #{bi} ({}) is subsumed by rule #{ai} ({}) — it never permits anything new",
                        b.translated_sql, a.translated_sql
                    ),
                    format!("rule #{bi}"),
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Formula construction and satisfiability
// ---------------------------------------------------------------------------

/// Leaf atom kinds, interned for deduplication.
#[derive(Debug, Clone, PartialEq)]
enum Atom {
    Cmp {
        attr: String,
        op: CmpOp,
        value: Value,
    },
    CmpAttrs {
        left: String,
        op: CmpOp,
        right: String,
    },
    Call {
        name: String,
        args: Vec<FnArg>,
    },
    Like {
        attr: String,
        pattern: String,
    },
}

#[derive(Debug, Default)]
struct Atoms(Vec<Atom>);

impl Atoms {
    fn intern(&mut self, atom: Atom) -> usize {
        if let Some(i) = self.0.iter().position(|a| *a == atom) {
            i
        } else {
            self.0.push(atom);
            self.0.len() - 1
        }
    }
}

/// A boolean formula over interned atoms.
#[derive(Debug, Clone)]
enum Form {
    Atom(usize),
    And(Box<Form>, Box<Form>),
    Or(Box<Form>, Box<Form>),
    Not(Box<Form>),
}

fn intern(pred: &RowPredicate, atoms: &mut Atoms) -> Form {
    match pred {
        RowPredicate::Compare { attr, op, value } => Form::Atom(atoms.intern(Atom::Cmp {
            attr: attr.clone(),
            op: *op,
            value: value.clone(),
        })),
        RowPredicate::CompareAttrs { left, op, right } => {
            Form::Atom(atoms.intern(Atom::CmpAttrs {
                left: left.clone(),
                op: *op,
                right: right.clone(),
            }))
        }
        RowPredicate::StoredFn { name, args } => Form::Atom(atoms.intern(Atom::Call {
            name: name.to_ascii_lowercase(),
            args: args.clone(),
        })),
        RowPredicate::Like {
            attr,
            pattern,
            negated,
        } => {
            let a = Form::Atom(atoms.intern(Atom::Like {
                attr: attr.clone(),
                pattern: pattern.clone(),
            }));
            if *negated {
                Form::Not(Box::new(a))
            } else {
                a
            }
        }
        RowPredicate::And(a, b) => {
            Form::And(Box::new(intern(a, atoms)), Box::new(intern(b, atoms)))
        }
        RowPredicate::Or(a, b) => Form::Or(Box::new(intern(a, atoms)), Box::new(intern(b, atoms))),
        RowPredicate::Not(p) => Form::Not(Box::new(intern(p, atoms))),
    }
}

fn eval(form: &Form, assignment: &[bool]) -> bool {
    match form {
        Form::Atom(i) => assignment[*i],
        Form::And(a, b) => eval(a, assignment) && eval(b, assignment),
        Form::Or(a, b) => eval(a, assignment) || eval(b, assignment),
        Form::Not(a) => !eval(a, assignment),
    }
}

/// Is the formula satisfiable by a consistent atom assignment?
/// `None` = undecided (atom count above the enumeration ceiling).
fn feasible(form: &Form, atoms: &Atoms) -> Option<bool> {
    let n = atoms.0.len();
    if n > MAX_ATOMS {
        return None;
    }
    let registry = pdm_core::functions::client_registry();
    for bits in 0u32..(1u32 << n) {
        let assignment: Vec<bool> = (0..n).map(|i| bits & (1 << i) != 0).collect();
        if eval(form, &assignment) && consistent(atoms, &assignment, &registry) {
            return Some(true);
        }
    }
    Some(false)
}

/// Can all atoms simultaneously take their assigned truth values for *some*
/// non-NULL attribute valuation?
fn consistent(
    atoms: &Atoms,
    assignment: &[bool],
    registry: &pdm_sql::functions::FunctionRegistry,
) -> bool {
    use std::collections::HashMap;
    let mut num: HashMap<&str, NumDomain> = HashMap::new();
    let mut text: HashMap<&str, TextDomain> = HashMap::new();
    let mut boolean: HashMap<&str, BoolDomain> = HashMap::new();

    for (atom, &truth) in atoms.0.iter().zip(assignment) {
        match atom {
            Atom::Cmp { attr, op, value } => match value {
                Value::Int(i) => {
                    if !num.entry(attr).or_default().apply(*op, *i as f64, truth) {
                        return false;
                    }
                }
                Value::Float(f) => {
                    if !num.entry(attr).or_default().apply(*op, *f, truth) {
                        return false;
                    }
                }
                Value::Text(s) => {
                    let d = text.entry(attr).or_default();
                    let ok = match (op, truth) {
                        (CmpOp::Eq, true) | (CmpOp::NotEq, false) => d.force_eq(s),
                        (CmpOp::Eq, false) | (CmpOp::NotEq, true) => {
                            d.neq.push(s.clone());
                            true
                        }
                        // Lexicographic range reasoning on text is skipped;
                        // such atoms are treated as independent.
                        _ => true,
                    };
                    if !ok {
                        return false;
                    }
                }
                Value::Bool(b) => {
                    let d = boolean.entry(attr).or_default();
                    let want = match (op, truth) {
                        (CmpOp::Eq, t) => Some(if t { *b } else { !*b }),
                        (CmpOp::NotEq, t) => Some(if t { !*b } else { *b }),
                        _ => None,
                    };
                    if let Some(v) = want {
                        if !d.restrict(v) {
                            return false;
                        }
                    }
                }
                Value::Null => {
                    // `attr op NULL` is never true in SQL; modulo-NULL it can
                    // never be satisfied.
                    if truth {
                        return false;
                    }
                }
            },
            Atom::CmpAttrs { left, op, right } => {
                if left.eq_ignore_ascii_case(right) {
                    // x op x folds to a constant.
                    let folds_true = matches!(op, CmpOp::Eq | CmpOp::LtEq | CmpOp::GtEq);
                    if truth != folds_true {
                        return false;
                    }
                }
                // Distinct attributes: relational reasoning is out of scope;
                // treated as independently satisfiable.
            }
            Atom::Call { name, args } => {
                let consts: Option<Vec<Value>> = args
                    .iter()
                    .map(|a| match a {
                        FnArg::Const(v) => Some(v.clone()),
                        FnArg::Attr(_) => None,
                    })
                    .collect();
                if let Some(values) = consts {
                    // All-constant call: fold it through the real registry.
                    match registry.call(name, &values) {
                        Ok(Value::Bool(b)) => {
                            if truth != b {
                                return false;
                            }
                        }
                        Ok(_) => {
                            // NULL / non-boolean result is never "true".
                            if truth {
                                return false;
                            }
                        }
                        Err(_) => {}
                    }
                } else if name == "overlaps_interval" && args.len() == 4 {
                    // Partially-constant effectivity check: an empty constant
                    // selection interval can never overlap anything.
                    let bound = |a: &FnArg| match a {
                        FnArg::Const(Value::Int(i)) => Some(*i as f64),
                        FnArg::Const(Value::Float(f)) => Some(*f),
                        _ => None,
                    };
                    if let (Some(lo), Some(hi)) = (bound(&args[2]), bound(&args[3])) {
                        if lo > hi && truth {
                            return false;
                        }
                    }
                }
            }
            Atom::Like { attr, pattern } => {
                let d = text.entry(attr).or_default();
                // A wildcard-free pattern is an equality constraint.
                if !pattern.contains('%') && !pattern.contains('_') {
                    if truth {
                        if !d.force_eq(pattern) {
                            return false;
                        }
                    } else {
                        d.neq.push(pattern.clone());
                    }
                } else {
                    d.likes.push((pattern.clone(), truth));
                }
            }
        }
    }

    num.values().all(NumDomain::consistent)
        && text.values().all(TextDomain::consistent)
        && boolean.values().all(BoolDomain::consistent)
        // One attribute cannot be forced to both a number and a string.
        && !num.iter().any(|(attr, d)| {
            d.eq.is_some() && text.get(attr).is_some_and(|t| t.eq.is_some())
        })
}

/// Interval domain of one numeric attribute.
struct NumDomain {
    lo: f64,
    lo_strict: bool,
    hi: f64,
    hi_strict: bool,
    eq: Option<f64>,
    neq: Vec<f64>,
}

impl Default for NumDomain {
    fn default() -> Self {
        NumDomain {
            lo: f64::NEG_INFINITY,
            lo_strict: false,
            hi: f64::INFINITY,
            hi_strict: false,
            eq: None,
            neq: Vec::new(),
        }
    }
}

impl NumDomain {
    /// Apply `attr op v` (or its negation when `truth` is false).
    /// Returns false on an immediate equality conflict.
    fn apply(&mut self, op: CmpOp, v: f64, truth: bool) -> bool {
        let op = if truth { op } else { negate(op) };
        match op {
            CmpOp::Eq => match self.eq {
                Some(e) if e != v => return false,
                _ => self.eq = Some(v),
            },
            CmpOp::NotEq => self.neq.push(v),
            CmpOp::Lt => self.upper(v, true),
            CmpOp::LtEq => self.upper(v, false),
            CmpOp::Gt => self.lower(v, true),
            CmpOp::GtEq => self.lower(v, false),
        }
        true
    }

    fn upper(&mut self, v: f64, strict: bool) {
        if v < self.hi || (v == self.hi && strict && !self.hi_strict) {
            self.hi = v;
            self.hi_strict = strict;
        }
    }

    fn lower(&mut self, v: f64, strict: bool) {
        if v > self.lo || (v == self.lo && strict && !self.lo_strict) {
            self.lo = v;
            self.lo_strict = strict;
        }
    }

    fn consistent(&self) -> bool {
        if let Some(e) = self.eq {
            let above = e > self.lo || (e == self.lo && !self.lo_strict);
            let below = e < self.hi || (e == self.hi && !self.hi_strict);
            return above && below && !self.neq.contains(&e);
        }
        if self.lo < self.hi {
            // A real interval of positive length survives finitely many
            // excluded points.
            return true;
        }
        self.lo == self.hi && !self.lo_strict && !self.hi_strict && !self.neq.contains(&self.lo)
    }
}

/// Equality/exclusion/LIKE domain of one text attribute.
#[derive(Default)]
struct TextDomain {
    eq: Option<String>,
    neq: Vec<String>,
    likes: Vec<(String, bool)>,
}

impl TextDomain {
    fn force_eq(&mut self, s: &str) -> bool {
        match &self.eq {
            Some(e) => e == s,
            None => {
                self.eq = Some(s.to_string());
                true
            }
        }
    }

    fn consistent(&self) -> bool {
        if let Some(e) = &self.eq {
            if self.neq.iter().any(|n| n == e) {
                return false;
            }
            return self
                .likes
                .iter()
                .all(|(pat, want)| like_match(e, pat) == *want);
        }
        // No forced value: only a pattern required both matched and
        // unmatched is contradictory.
        !self
            .likes
            .iter()
            .any(|(p, w)| *w && self.likes.iter().any(|(q, x)| !*x && p == q))
    }
}

/// Two-point domain of one boolean attribute.
struct BoolDomain {
    can_true: bool,
    can_false: bool,
}

impl Default for BoolDomain {
    fn default() -> Self {
        BoolDomain {
            can_true: true,
            can_false: true,
        }
    }
}

impl BoolDomain {
    fn restrict(&mut self, v: bool) -> bool {
        if v {
            self.can_false = false;
        } else {
            self.can_true = false;
        }
        self.consistent()
    }

    fn consistent(&self) -> bool {
        self.can_true || self.can_false
    }
}

fn negate(op: CmpOp) -> CmpOp {
    match op {
        CmpOp::Eq => CmpOp::NotEq,
        CmpOp::NotEq => CmpOp::Eq,
        CmpOp::Lt => CmpOp::GtEq,
        CmpOp::GtEq => CmpOp::Lt,
        CmpOp::Gt => CmpOp::LtEq,
        CmpOp::LtEq => CmpOp::Gt,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdm_core::rules::condition::AggFunc;
    use pdm_core::rules::{ActionKind, Rule, UserPattern};

    fn analyze(rules: RuleTable) -> Report {
        let mut report = Report::new();
        check_rule_table(&rules, &SchemaInfo::paper(), &mut report);
        report
    }

    fn row_rule(pred: RowPredicate) -> Rule {
        Rule::for_all_users(ActionKind::Access, "assy", Condition::Row(pred))
    }

    #[test]
    fn sane_rules_are_clean() {
        let mut t = RuleTable::new();
        t.add(row_rule(RowPredicate::compare(
            "make_or_buy",
            CmpOp::NotEq,
            "buy",
        )));
        t.add(Rule::for_all_users(
            ActionKind::Access,
            "comp",
            Condition::ExistsStructure {
                object_table: "comp".into(),
                relation_table: "specified_by".into(),
                related_table: "spec".into(),
            },
        ));
        let r = analyze(t);
        assert!(r.is_clean(), "{r}");
    }

    #[test]
    fn unsatisfiable_interval_flagged() {
        // payload < 10 AND payload > 20 — empty over the reals.
        let mut t = RuleTable::new();
        t.add(row_rule(
            RowPredicate::compare("payload", CmpOp::Lt, 10i64).and(RowPredicate::compare(
                "payload",
                CmpOp::Gt,
                20i64,
            )),
        ));
        assert!(analyze(t).flags(Check::UnsatisfiableRule));
    }

    #[test]
    fn contradictory_equalities_flagged() {
        let mut t = RuleTable::new();
        t.add(row_rule(
            RowPredicate::compare("name", CmpOp::Eq, "wing").and(RowPredicate::compare(
                "name",
                CmpOp::Eq,
                "fuselage",
            )),
        ));
        assert!(analyze(t).flags(Check::UnsatisfiableRule));
    }

    #[test]
    fn tautology_flagged_as_warning() {
        // x = 1 OR x <> 1 is true for every non-NULL x.
        let mut t = RuleTable::new();
        t.add(row_rule(
            RowPredicate::compare("payload", CmpOp::Eq, 1i64).or(RowPredicate::compare(
                "payload",
                CmpOp::NotEq,
                1i64,
            )),
        ));
        let r = analyze(t);
        assert!(r.flags(Check::TautologicalRule));
        assert!(!r.has_errors());
    }

    #[test]
    fn self_comparison_folds() {
        // obid <> obid is constant-false.
        let mut t = RuleTable::new();
        t.add(row_rule(RowPredicate::CompareAttrs {
            left: "obid".into(),
            op: CmpOp::NotEq,
            right: "obid".into(),
        }));
        assert!(analyze(t).flags(Check::UnsatisfiableRule));
    }

    #[test]
    fn constant_stored_fn_folds_through_registry() {
        // set_overlaps('OPTA', 'OPTB') is constant-false.
        let mut t = RuleTable::new();
        t.add(row_rule(RowPredicate::StoredFn {
            name: "set_overlaps".into(),
            args: vec![
                FnArg::Const(Value::from("OPTA")),
                FnArg::Const(Value::from("OPTB")),
            ],
        }));
        assert!(analyze(t).flags(Check::UnsatisfiableRule));
    }

    #[test]
    fn empty_effectivity_flagged() {
        // Selection interval [9, 4] can never overlap any effectivity.
        let mut t = RuleTable::new();
        t.add(Rule::for_all_users(
            ActionKind::Access,
            "link",
            Condition::Row(RowPredicate::StoredFn {
                name: "overlaps_interval".into(),
                args: vec![
                    FnArg::Attr("eff_from".into()),
                    FnArg::Attr("eff_to".into()),
                    FnArg::Const(Value::Int(9)),
                    FnArg::Const(Value::Int(4)),
                ],
            }),
        ));
        let r = analyze(t);
        assert!(r.flags(Check::EmptyEffectivity));
        assert!(r.flags(Check::UnsatisfiableRule));
    }

    #[test]
    fn like_vs_forced_equality() {
        // name = 'wing' AND name LIKE 'fus%' cannot both hold.
        let mut t = RuleTable::new();
        t.add(row_rule(
            RowPredicate::compare("name", CmpOp::Eq, "wing").and(RowPredicate::Like {
                attr: "name".into(),
                pattern: "fus%".into(),
                negated: false,
            }),
        ));
        assert!(analyze(t).flags(Check::UnsatisfiableRule));
    }

    #[test]
    fn duplicate_rule_flagged() {
        let mut t = RuleTable::new();
        let p = RowPredicate::compare("dec", CmpOp::Eq, "+");
        t.add(row_rule(p.clone()));
        t.add(row_rule(p));
        let r = analyze(t);
        assert!(r.flags(Check::DuplicateRule));
    }

    #[test]
    fn subsumed_rule_flagged() {
        // `payload > 10` ⊂ `payload > 5`: the narrower rule is dead.
        let mut t = RuleTable::new();
        t.add(row_rule(RowPredicate::compare("payload", CmpOp::Gt, 5i64)));
        t.add(Rule::new(
            UserPattern::Named("scott".into()),
            ActionKind::Query,
            "assy",
            Condition::Row(RowPredicate::compare("payload", CmpOp::Gt, 10i64)),
        ));
        let r = analyze(t);
        assert!(r.flags(Check::SubsumedRule));
        assert!(!r.has_errors());
    }

    #[test]
    fn non_overlapping_rules_not_subsumed() {
        let mut t = RuleTable::new();
        t.add(row_rule(RowPredicate::compare("payload", CmpOp::Gt, 5i64)));
        t.add(row_rule(RowPredicate::compare("payload", CmpOp::Lt, 0i64)));
        let r = analyze(t);
        assert!(!r.flags(Check::SubsumedRule));
    }

    #[test]
    fn negative_count_bound_unsatisfiable() {
        let mut t = RuleTable::new();
        t.add(Rule::for_all_users(
            ActionKind::MultiLevelExpand,
            "assy",
            Condition::TreeAggregate {
                func: AggFunc::Count,
                attr: None,
                object_type: None,
                op: CmpOp::Lt,
                value: 0.0,
            },
        ));
        assert!(analyze(t).flags(Check::UnsatisfiableRule));
    }

    #[test]
    fn exists_structure_unknown_table_flagged() {
        let mut t = RuleTable::new();
        t.add(Rule::for_all_users(
            ActionKind::Access,
            "comp",
            Condition::ExistsStructure {
                object_table: "comp".into(),
                relation_table: "no_such_relation".into(),
                related_table: "spec".into(),
            },
        ));
        assert!(analyze(t).flags(Check::UnknownTable));
    }
}
