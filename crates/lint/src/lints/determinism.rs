//! Determinism lint: hash-order iteration must never reach serialized
//! output. The wall clock and ambient entropy are clippy bans by resolved
//! path (`clippy.toml`, DESIGN.md §13); clippy's `iter_over_hash_type` sees
//! only `for` loops, so this one stays token-level.

use std::collections::BTreeSet;

use crate::lex::TokKind;
use crate::registry::{Finding, Lint};
use crate::source::LintFile;

pub fn run(files: &[LintFile], out: &mut Vec<Finding>) {
    for f in files {
        unordered_iter(f, out);
    }
}

/// Iterator sinks whose result is independent of visit order.
const ORDER_INSENSITIVE_SINKS: &[&str] = &[
    "count",
    "sum",
    "min",
    "max",
    "all",
    "any",
    "len",
    "max_by_key",
    "min_by_key",
    "max_by",
    "min_by",
    "product",
    "find",
    "position",
];

/// Collections whose `collect` target re-establishes a canonical order
/// (or is itself unordered, deferring the question to its own uses).
const ORDERED_COLLECT_TARGETS: &[&str] =
    &["BTreeMap", "BTreeSet", "BinaryHeap", "HashMap", "HashSet"];

/// Methods that enumerate a hash collection in hash order.
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_iter",
    "into_keys",
    "into_values",
];

/// Taint names bound to `HashMap`/`HashSet` (directly via type ascription
/// or constructor, transitively via `let x = ...tainted...`), then flag
/// hash-order enumerations that do not end in an order-insensitive sink.
fn unordered_iter(f: &LintFile, out: &mut Vec<Finding>) {
    let toks = &f.toks;
    let mut tainted: BTreeSet<String> = BTreeSet::new();

    // Pass 1: direct bindings — `name : .. HashMap ..` (field or let
    // ascription) and `name = HashMap::new()`-style constructors.
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident || crate::source::is_keyword(&t.text) {
            continue;
        }
        let Some(next) = toks.get(i + 1) else {
            continue;
        };
        let window = if next.is_punct(":") {
            12
        } else if next.is_punct("=") {
            4
        } else {
            continue;
        };
        for w in &toks[i + 2..(i + 2 + window).min(toks.len())] {
            if w.is_punct(";") || w.is_punct(",") || w.is_punct(")") || w.is_punct("{") {
                break;
            }
            if next.is_punct(":") && w.is_punct("=") {
                break;
            }
            if w.is_ident("HashMap") || w.is_ident("HashSet") {
                tainted.insert(t.text.clone());
                break;
            }
        }
    }

    // Pass 2 (fixpoint): `let x = <rhs using a tainted ident as a whole
    // value> ;` propagates taint through guards and aliases
    // (`let g = lock(&self.map);`, `let m = &self.map;`). A tainted
    // ident followed by `.` or `[` is extracting a contained value
    // (`pushed.remove(&k)`, `site_of[&id]`), which carries no iteration
    // order, so it does not propagate.
    loop {
        let mut grew = false;
        for (i, t) in toks.iter().enumerate() {
            if !t.is_ident("let") {
                continue;
            }
            let mut j = i + 1;
            if toks.get(j).is_some_and(|t| t.is_ident("mut")) {
                j += 1;
            }
            let Some(name) = toks.get(j) else { continue };
            if name.kind != TokKind::Ident || !toks.get(j + 1).is_some_and(|t| t.is_punct("=")) {
                continue;
            }
            if tainted.contains(&name.text) {
                continue;
            }
            let mut k = j + 2;
            while k < toks.len() && !toks[k].is_punct(";") {
                let whole_value = toks[k].kind == TokKind::Ident
                    && tainted.contains(&toks[k].text)
                    && toks
                        .get(k + 1)
                        .is_some_and(|n| !n.is_punct(".") && !n.is_punct("["));
                if whole_value {
                    tainted.insert(name.text.clone());
                    grew = true;
                    break;
                }
                k += 1;
            }
        }
        if !grew {
            break;
        }
    }

    // Per-function shadowing: a binding of the same name whose ascribed
    // type is visibly NOT a hash collection (`filters: &[Expr]`,
    // `let touched: Vec<usize> = ..`) untaints the name inside that
    // function — unless the same function also hash-binds it.
    let mut shadow: Vec<(String, usize, usize)> = Vec::new();
    for func in &f.fns {
        let Some((open, close)) = func.body else {
            continue;
        };
        let mut nonhash: BTreeSet<&str> = BTreeSet::new();
        let mut hash: BTreeSet<&str> = BTreeSet::new();
        for i in func.sig_start..close {
            let t = &toks[i];
            if t.kind != TokKind::Ident || crate::source::is_keyword(&t.text) {
                continue;
            }
            if !toks.get(i + 1).is_some_and(|n| n.is_punct(":")) {
                continue;
            }
            let mut is_hash = false;
            for w in &toks[i + 2..(i + 14).min(toks.len())] {
                if w.is_punct(";") || w.is_punct(",") || w.is_punct("{") || w.is_punct("=") {
                    break;
                }
                if w.is_ident("HashMap") || w.is_ident("HashSet") {
                    is_hash = true;
                    break;
                }
            }
            if is_hash {
                hash.insert(&t.text);
            } else {
                nonhash.insert(&t.text);
            }
        }
        for n in nonhash.difference(&hash) {
            shadow.push(((*n).to_string(), open, close));
        }
    }

    // Flag enumerations of tainted names.
    for (i, t) in toks.iter().enumerate() {
        if f.test_mask[i] || t.kind != TokKind::Ident || !tainted.contains(&t.text) {
            continue;
        }
        if shadow
            .iter()
            .any(|(n, open, close)| *n == t.text && i > *open && i < *close)
        {
            continue;
        }
        // `name . iter_method (`
        let is_enum_call = toks.get(i + 1).is_some_and(|t| t.is_punct("."))
            && toks
                .get(i + 2)
                .is_some_and(|t| ITER_METHODS.contains(&t.text.as_str()))
            && toks.get(i + 3).is_some_and(|t| t.is_punct("("));
        // `for pat in [&[mut]] name {`
        let mut back = i;
        while back > 0 && (toks[back - 1].is_punct("&") || toks[back - 1].is_ident("mut")) {
            back -= 1;
        }
        let is_for_loop = back > 0
            && toks[back - 1].is_ident("in")
            && toks.get(i + 1).is_some_and(|t| t.is_punct("{"));
        if !is_enum_call && !is_for_loop {
            continue;
        }
        if is_enum_call && statement_is_order_insensitive(toks, i + 3) {
            continue;
        }
        if is_enum_call && collected_then_sorted(toks, i) {
            continue;
        }
        out.push(Finding::new(
            Lint::UnorderedIter,
            &f.path,
            t.line,
            format!(
                "`{}` is hash-ordered; its iteration order can reach output — \
                 use a BTree collection, sort, or an order-insensitive sink",
                t.text
            ),
        ));
    }
}

/// The collect-then-sort idiom: the enumeration is bound by a `let` and
/// a following statement sorts the binding
/// (`let mut v: Vec<_> = m.keys().collect(); v.sort_unstable();`),
/// which re-establishes a canonical order before anything observes it.
fn collected_then_sorted(toks: &[crate::lex::Tok], at: usize) -> bool {
    // Statement start: walk back to the previous `;`, `{`, or `}`.
    let mut s = at;
    while s > 0 {
        let p = &toks[s - 1];
        if p.is_punct(";") || p.is_punct("{") || p.is_punct("}") {
            break;
        }
        s -= 1;
    }
    if !toks.get(s).is_some_and(|t| t.is_ident("let")) {
        return false;
    }
    let mut n = s + 1;
    if toks.get(n).is_some_and(|t| t.is_ident("mut")) {
        n += 1;
    }
    let Some(name) = toks.get(n) else {
        return false;
    };
    if name.kind != TokKind::Ident {
        return false;
    }
    // Statement end: first `;` at the statement's own depth.
    let mut depth = 0i64;
    let mut k = at;
    let end = loop {
        if k >= toks.len() {
            return false;
        }
        let t = &toks[k];
        if t.is_punct("(") || t.is_punct("{") || t.is_punct("[") {
            depth += 1;
        } else if t.is_punct(")") || t.is_punct("}") || t.is_punct("]") {
            depth -= 1;
            if depth < 0 {
                return false;
            }
        } else if t.is_punct(";") && depth == 0 {
            break k;
        }
        k += 1;
    };
    // Look for `name . sort*` shortly after.
    for k in (end + 1)..(end + 60).min(toks.len().saturating_sub(2)) {
        if toks[k].is_ident(&name.text)
            && toks[k + 1].is_punct(".")
            && toks[k + 2].text.starts_with("sort")
        {
            return true;
        }
    }
    false
}

/// From the opening paren of the iter call, scan the rest of the
/// statement for an order-insensitive terminal sink or an
/// order-restoring `collect::<BTree..>()`.
fn statement_is_order_insensitive(toks: &[crate::lex::Tok], from: usize) -> bool {
    let mut depth = 0i64;
    let mut k = from;
    while k < toks.len() {
        let t = &toks[k];
        if t.is_punct("(") || t.is_punct("{") || t.is_punct("[") {
            depth += 1;
        } else if t.is_punct(")") || t.is_punct("}") || t.is_punct("]") {
            depth -= 1;
            if depth < 0 {
                return false;
            }
        } else if depth == 0 && t.is_punct(";") {
            return false;
        } else if t.is_punct(".") {
            if let Some(m) = toks.get(k + 1) {
                if ORDER_INSENSITIVE_SINKS.contains(&m.text.as_str()) {
                    return true;
                }
                if m.is_ident("collect") {
                    // `.collect::<Target>()` — look ahead for the target.
                    for w in &toks[k + 2..(k + 10).min(toks.len())] {
                        if w.is_punct("(") {
                            break;
                        }
                        if ORDERED_COLLECT_TARGETS.contains(&w.text.as_str()) {
                            return true;
                        }
                    }
                }
            }
        }
        k += 1;
    }
    false
}
