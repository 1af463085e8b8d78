//! Replay lints: no arm of a `match` over `WalRecord` may stand in for a
//! variant it does not name (with every arm naming one, rustc's
//! exhaustiveness check makes a new record type fail to compile at every
//! replay site instead of silently skipping it), and every function that
//! applies shipped records must fence its epoch argument.

use std::collections::BTreeSet;

use crate::lex::{Tok, TokKind};
use crate::registry::{Finding, Lint};
use crate::source::{matching_brace, LintFile};

pub fn run(files: &[LintFile], out: &mut Vec<Finding>) {
    for f in files {
        wal_matches(f, out);
    }
    unfenced_apply(files, out);
}

/// Scan every non-test `match` body; if any arm pattern mentions
/// `WalRecord`, the match is a replay site, and every arm whose pattern
/// names no `WalRecord::` variant is a catch-all — `_`, a binding, or a
/// nested one such as `Some(_)`.
fn wal_matches(f: &LintFile, out: &mut Vec<Finding>) {
    let toks = &f.toks;
    for (i, t) in toks.iter().enumerate() {
        if f.test_mask[i] || !t.is_ident("match") {
            continue;
        }
        // The match body is the next `{` at scrutinee depth zero.
        let mut open = i + 1;
        let mut d = 0i64;
        while open < toks.len() {
            let t = &toks[open];
            if t.is_punct("(") || t.is_punct("[") {
                d += 1;
            } else if t.is_punct(")") || t.is_punct("]") {
                d -= 1;
            } else if t.is_punct("{") && d == 0 {
                break;
            } else if t.is_punct(";") && d == 0 {
                // `match` used as an identifier-ish fragment; bail.
                open = toks.len();
            }
            open += 1;
        }
        if open >= toks.len() {
            continue;
        }
        let close = matching_brace(toks, open);
        let arms = split_arms(toks, open, close);
        let mentions_wal = arms
            .iter()
            .any(|(ps, pe, _)| range_has_path(toks, *ps, *pe, "WalRecord"));
        if !mentions_wal {
            continue;
        }
        for (ps, pe, _) in &arms {
            let pattern = &toks[*ps..=*pe];
            let names_variant = pattern.windows(3).any(|w| {
                w[0].is_ident("WalRecord") && w[1].is_punct("::") && w[2].kind == TokKind::Ident
            });
            if !names_variant {
                let text: String = pattern.iter().map(|t| t.text.as_str()).collect();
                out.push(Finding::new(
                    Lint::ReplayCatchall,
                    &f.path,
                    pattern[0].line,
                    format!(
                        "arm `{text}` in a WalRecord match names no WalRecord variant — \
                         a new record type would silently skip replay here"
                    ),
                ));
            }
        }
    }
}

/// Split a match body into arms: `(pattern_start, pattern_end, body_end)`
/// token ranges. The pattern runs to the `=>` at arm depth.
fn split_arms(toks: &[Tok], open: usize, close: usize) -> Vec<(usize, usize, usize)> {
    let mut arms = Vec::new();
    let mut i = open + 1;
    while i < close {
        let ps = i;
        // Find `=>` at depth 0 relative to the arm.
        let mut d = 0i64;
        let mut arrow = None;
        let mut k = i;
        while k < close {
            let t = &toks[k];
            if t.is_punct("(") || t.is_punct("[") || t.is_punct("{") {
                d += 1;
            } else if t.is_punct(")") || t.is_punct("]") || t.is_punct("}") {
                d -= 1;
            } else if t.is_punct("=>") && d == 0 {
                arrow = Some(k);
                break;
            }
            k += 1;
        }
        let Some(arrow) = arrow else { break };
        if arrow == ps {
            break;
        }
        // Body: a block to its matching brace, or an expression to the
        // `,` at depth 0.
        let body_end;
        if toks.get(arrow + 1).is_some_and(|t| t.is_punct("{")) {
            body_end = matching_brace(toks, arrow + 1);
        } else {
            let mut d = 0i64;
            let mut k = arrow + 1;
            loop {
                if k >= close {
                    k = close - 1;
                    break;
                }
                let t = &toks[k];
                if t.is_punct("(") || t.is_punct("[") || t.is_punct("{") {
                    d += 1;
                } else if t.is_punct(")") || t.is_punct("]") || t.is_punct("}") {
                    d -= 1;
                } else if t.is_punct(",") && d == 0 {
                    break;
                }
                k += 1;
            }
            body_end = k;
        }
        arms.push((ps, arrow - 1, body_end));
        i = body_end + 1;
        // Skip a trailing comma after a block body.
        if toks.get(i).is_some_and(|t| t.is_punct(",")) {
            i += 1;
        }
    }
    arms
}

fn range_has_path(toks: &[Tok], start: usize, end: usize, ident: &str) -> bool {
    toks[start..=end.min(toks.len() - 1)]
        .iter()
        .any(|t| t.is_ident(ident))
}

/// Record-applying functions must fence their `epoch` parameter: compare
/// it, or pass it to a function that does (propagated to fixpoint).
fn unfenced_apply(files: &[LintFile], out: &mut Vec<Finding>) {
    struct Candidate<'a> {
        file: &'a LintFile,
        name: String,
        line: u32,
        applies_records: bool,
        compares: bool,
        /// Callees that receive the epoch argument.
        epoch_callees: Vec<String>,
    }

    const COMPARISONS: &[&str] = &["==", "!=", "<", ">", "<=", ">="];
    let mut cands: Vec<Candidate> = Vec::new();
    for f in files {
        for func in &f.fns {
            if func.is_test || !func.params.iter().any(|p| p == "epoch") {
                continue;
            }
            let Some((open, close)) = func.body else {
                continue;
            };
            let toks = &f.toks;
            let mut applies = false;
            let mut compares = false;
            let mut epoch_callees = Vec::new();
            for k in (open + 1)..close {
                let t = &toks[k];
                if t.is_ident("record") || t.is_ident("records") || t.is_ident("WalRecord") {
                    applies = true;
                }
                if t.is_ident("epoch") {
                    let prev = &toks[k - 1];
                    let next = toks.get(k + 1);
                    if COMPARISONS.contains(&prev.text.as_str())
                        || next.is_some_and(|n| COMPARISONS.contains(&n.text.as_str()))
                    {
                        compares = true;
                    }
                }
                // `callee ( .. epoch .. )` — epoch forwarded.
                if t.kind == TokKind::Ident && toks.get(k + 1).is_some_and(|t| t.is_punct("(")) {
                    let end = crate::source::matching_brace_like(toks, k + 1, "(", ")");
                    if toks[k + 2..end].iter().any(|a| a.is_ident("epoch")) {
                        epoch_callees.push(t.text.clone());
                    }
                }
            }
            cands.push(Candidate {
                file: f,
                name: func.name.clone(),
                line: func.line,
                applies_records: applies,
                compares,
                epoch_callees,
            });
        }
    }

    // Fenced fixpoint: compares directly, or forwards epoch to a fenced fn.
    let mut fenced: BTreeSet<String> = cands
        .iter()
        .filter(|c| c.compares)
        .map(|c| c.name.clone())
        .collect();
    loop {
        let mut grew = false;
        for c in &cands {
            if !fenced.contains(&c.name) && c.epoch_callees.iter().any(|e| fenced.contains(e)) {
                fenced.insert(c.name.clone());
                grew = true;
            }
        }
        if !grew {
            break;
        }
    }

    for c in &cands {
        if c.applies_records && !fenced.contains(&c.name) {
            out.push(Finding::new(
                Lint::UnfencedApply,
                &c.file.path,
                c.line,
                format!(
                    "fn {} applies records but never compares its epoch argument \
                     (directly or via a fenced callee) — a deposed primary could roll \
                     back this site",
                    c.name
                ),
            ));
        }
    }
}
