//! Lock-discipline lints: a static lock-acquisition model built from
//! `lock_unpoisoned(&path)` / `path.lock()` sites, guard scopes recovered
//! from bindings and brace structure, and a name-based intra-workspace
//! call graph propagating may-acquire and may-reach-boundary sets.
//!
//! The model is deliberately conservative-but-honest: lock identity is
//! `defining-file + field name`, call edges resolve by bare function
//! name (so a call to `.len()` reaches every workspace `fn len`), and
//! guard scopes over-extend to the enclosing block. Findings that the
//! design intends (fsync under the commit gate) carry `lint:allow`
//! markers with the architectural justification.

use std::collections::{BTreeMap, BTreeSet};

use crate::lex::{Tok, TokKind};
use crate::registry::{Finding, Lint};
use crate::source::{is_keyword, LintFile};

/// Functions whose bodies ARE the generic locking mechanism; their
/// internal `m.lock()` is not an acquisition of a nameable lock.
const LOCK_HELPERS: &[&str] = &["lock_unpoisoned", "lock"];

/// Calls that cross a network or durability boundary. Transitive
/// callers inherit the property through the call graph. `exchange` is
/// `pdm-core`'s one request routine; it takes the server call as a
/// closure, so it is named here rather than left to the call graph.
const BOUNDARY_BASE: &[&str] = &[
    "try_send_request",
    "try_receive_response",
    "exchange",
    "receive_ship",
    "ship_batch",
    "sync",
    "fsync",
];

/// Method names so ubiquitous on std collections that a name-based call
/// edge would almost always resolve to the wrong function (a `.push()`
/// on a Vec is not a call to some workspace `fn push`). Calls to these
/// names contribute no call-graph edges; the cost is that a workspace
/// function hiding lock acquisition behind such a name goes unseen —
/// an accepted trade for a cycle detector with no fabricated edges.
const CALL_DENYLIST: &[&str] = &[
    "push",
    "pop",
    "insert",
    "remove",
    "get",
    "get_mut",
    "len",
    "is_empty",
    "clear",
    "contains",
    "contains_key",
    "entry",
    "or_insert",
    "or_insert_with",
    "or_default",
    "keys",
    "values",
    "values_mut",
    "iter",
    "iter_mut",
    "into_iter",
    "next",
    "map",
    "map_err",
    "and_then",
    "filter",
    "fold",
    "any",
    "all",
    "count",
    "position",
    "find",
    "chain",
    "zip",
    "rev",
    "enumerate",
    "flat_map",
    "copied",
    "cloned",
    "sum",
    "last",
    "first",
    "min",
    "max",
    "collect",
    "extend",
    "retain",
    "drain",
    "sort",
    "sort_by",
    "sort_by_key",
    "split_off",
    "take",
    "replace",
    "swap",
    "unwrap",
    "unwrap_or",
    "unwrap_or_else",
    "unwrap_or_default",
    "expect",
    "ok_or",
    "ok_or_else",
    "ok",
    "err",
    "clone",
    "to_vec",
    "to_string",
    "into",
    "from",
    "as_ref",
    "as_mut",
    "as_str",
    "as_slice",
    "as_bytes",
    "push_back",
    "push_front",
    "pop_front",
    "pop_back",
    "starts_with",
    "ends_with",
    "trim",
    "split",
    "join",
    "fmt",
    "eq",
    "ne",
    "cmp",
    "partial_cmp",
    "hash",
    "default",
    "new",
    "with_capacity",
    "wrapping_add",
    "saturating_add",
    "checked_add",
    "saturating_sub",
    "checked_sub",
    "min_by_key",
    "max_by_key",
    "abs",
    "format",
    "write",
    "to_owned",
    "into_inner",
    "notify_all",
    "notify_one",
    "wait",
    "wait_timeout",
    "load",
    "store",
    "fetch_add",
    "elapsed",
    "is_some",
    "is_none",
    "is_ok",
    "is_err",
    // `drop(x)` is `std::mem::drop`: which `Drop` impl it runs is decided
    // by `x`'s type, so by bare name it would reach every RAII guard's
    // `fn drop` in the workspace — and almost every `x` is a `MutexGuard`.
    // (The locks a guard's `fn drop` takes are still modelled inside it.)
    "drop",
];

/// One lock acquisition with its recovered guard scope (token indices
/// within the owning file).
#[derive(Debug)]
struct Acq {
    lock: String,
    tok: usize,
    line: u32,
    scope_end: usize,
}

/// One analyzed function.
#[derive(Debug)]
struct FnModel {
    file: usize,
    name: String,
    acqs: Vec<Acq>,
    /// (callee name, token index, line)
    calls: Vec<(String, usize, u32)>,
}

pub fn run(files: &[LintFile], out: &mut Vec<Finding>) {
    scan_unbounded_waits(files, out);
    let models = build_models(files);

    // Direct lock sets and the call graph, merged by function name.
    let mut direct: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    let mut callees: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    for m in &models {
        let d = direct.entry(&m.name).or_default();
        for a in &m.acqs {
            d.insert(&a.lock);
        }
        let c = callees.entry(&m.name).or_default();
        for (callee, _, _) in &m.calls {
            c.insert(callee);
        }
    }

    // may_acquire fixpoint: locks a call to `name` may take, transitively.
    let mut may: BTreeMap<&str, BTreeSet<&str>> = direct.clone();
    loop {
        let mut grew = false;
        let snapshot = may.clone();
        for (name, cs) in &callees {
            let mut acc = snapshot.get(name).cloned().unwrap_or_default();
            for c in cs {
                if let Some(s) = snapshot.get(c) {
                    acc.extend(s.iter().copied());
                }
            }
            if acc.len() > may.get(name).map_or(0, |s| s.len()) {
                may.insert(name, acc);
                grew = true;
            }
        }
        if !grew {
            break;
        }
    }

    // boundary-reaching fixpoint.
    let mut boundary: BTreeSet<&str> = BOUNDARY_BASE.iter().copied().collect();
    loop {
        let mut grew = false;
        for (name, cs) in &callees {
            if !boundary.contains(name) && cs.iter().any(|c| boundary.contains(c)) {
                boundary.insert(name);
                grew = true;
            }
        }
        if !grew {
            break;
        }
    }

    // Lock-order edges and in-scope checks.
    let mut edges: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    let mut edge_site: BTreeMap<(String, String), String> = BTreeMap::new();
    for m in &models {
        let f = &files[m.file];
        for a in &m.acqs {
            // Direct nested acquisitions within the guard scope.
            for b in &m.acqs {
                if b.tok <= a.tok || b.tok > a.scope_end {
                    continue;
                }
                if b.lock == a.lock {
                    out.push(Finding::new(
                        Lint::NestedLockReacquire,
                        &f.path,
                        b.line,
                        format!(
                            "`{}` re-acquired at line {} while the guard taken at line {} \
                             is live — std::sync::Mutex self-deadlocks",
                            a.lock, b.line, a.line
                        ),
                    ));
                } else {
                    edges
                        .entry(a.lock.clone())
                        .or_default()
                        .insert(b.lock.clone());
                    edge_site
                        .entry((a.lock.clone(), b.lock.clone()))
                        .or_insert_with(|| format!("{}:{} (fn {})", f.path, b.line, m.name));
                }
            }
            // Calls inside the guard scope: lock edges via may-acquire,
            // boundary crossings via the boundary set.
            for (callee, tok, line) in &m.calls {
                if *tok <= a.tok || *tok > a.scope_end {
                    continue;
                }
                // A call bearing the enclosing function's own name is
                // almost always a same-named method on a child value
                // (`fn snapshot` calling `histogram.snapshot()`), which
                // name merging would turn into false recursion edges.
                if *callee == m.name {
                    continue;
                }
                if let Some(locks) = may.get(callee.as_str()) {
                    for l in locks {
                        if *l != a.lock {
                            edges
                                .entry(a.lock.clone())
                                .or_default()
                                .insert((*l).to_string());
                            edge_site
                                .entry((a.lock.clone(), (*l).to_string()))
                                .or_insert_with(|| {
                                    format!(
                                        "{}:{} (call to {} in fn {})",
                                        f.path, line, callee, m.name
                                    )
                                });
                        }
                    }
                }
                if boundary.contains(callee.as_str()) {
                    out.push(Finding::new(
                        Lint::LockAcrossBoundary,
                        &f.path,
                        a.line,
                        format!(
                            "guard for `{}` (taken at line {}) is held across boundary \
                             call `{}` at line {}",
                            a.lock, a.line, callee, line
                        ),
                    ));
                }
            }
        }
    }

    if let Some(cycle) = find_cycle(&edges) {
        let sites: Vec<String> = cycle
            .windows(2)
            .filter_map(|w| edge_site.get(&(w[0].clone(), w[1].clone())).cloned())
            .collect();
        // Anchor the finding at the first edge's site (file:line).
        let (file, line) = sites
            .first()
            .and_then(|s| {
                let mut it = s.split(':');
                let f = it.next()?.to_string();
                let l = it.next()?.parse().ok()?;
                Some((f, l))
            })
            .unwrap_or_else(|| ("workspace".to_string(), 0));
        out.push(Finding::new(
            Lint::LockOrderCycle,
            &file,
            line,
            format!(
                "lock-order cycle {}; edges observed at [{}]",
                cycle.join(" -> "),
                sites.join("; ")
            ),
        ));
    }
}

/// Deterministic cycle finder over an adjacency map. Returns a closed
/// path `[a, b, .., a]` if the graph has a cycle. Public so the
/// property tests can pit it against a reference detector.
pub fn find_cycle(graph: &BTreeMap<String, BTreeSet<String>>) -> Option<Vec<String>> {
    #[derive(Clone, Copy, PartialEq)]
    enum Color {
        White,
        Gray,
        Black,
    }
    let mut nodes: BTreeSet<&String> = graph.keys().collect();
    for vs in graph.values() {
        nodes.extend(vs.iter());
    }
    let mut color: BTreeMap<&String, Color> = nodes.iter().map(|n| (*n, Color::White)).collect();

    fn dfs<'a>(
        n: &'a String,
        graph: &'a BTreeMap<String, BTreeSet<String>>,
        color: &mut BTreeMap<&'a String, Color>,
        stack: &mut Vec<&'a String>,
    ) -> Option<Vec<String>> {
        color.insert(n, Color::Gray);
        stack.push(n);
        if let Some(next) = graph.get(n) {
            for m in next {
                match color.get(m).copied().unwrap_or(Color::White) {
                    Color::Gray => {
                        let start = stack.iter().position(|s| *s == m).unwrap_or(0);
                        let mut cycle: Vec<String> =
                            stack[start..].iter().map(|s| (*s).clone()).collect();
                        cycle.push(m.clone());
                        return Some(cycle);
                    }
                    Color::White => {
                        if let Some(c) = dfs(m, graph, color, stack) {
                            return Some(c);
                        }
                    }
                    Color::Black => {}
                }
            }
        }
        stack.pop();
        color.insert(n, Color::Black);
        None
    }

    let keys: Vec<&String> = nodes.iter().copied().collect();
    for n in keys {
        if color.get(n) == Some(&Color::White) {
            let mut stack = Vec::new();
            if let Some(c) = dfs(n, graph, &mut color, &mut stack) {
                return Some(c);
            }
        }
    }
    None
}

/// Flag bare `Condvar::wait` calls. The receiver is judged by name: an
/// ident containing `cv` or `cond` is a condition variable (the
/// workspace convention — `sf_cv`, `queue_cv`, `cond`); `barrier.wait()`
/// and the netsim `channel.wait(seconds)` pass untouched. Bare waits
/// block forever, so a deadline or shutdown cannot interrupt them —
/// every condvar wait must be a `wait_timeout` slice re-checked in a
/// loop (DESIGN.md §14: no unbounded blocking point).
fn scan_unbounded_waits(files: &[LintFile], out: &mut Vec<Finding>) {
    for f in files {
        for func in &f.fns {
            if func.is_test {
                continue;
            }
            let Some((open, close)) = func.body else {
                continue;
            };
            let toks = &f.toks;
            for i in open + 1..close.saturating_sub(2) {
                if !(toks[i].is_punct(".")
                    && toks[i + 1].is_ident("wait")
                    && toks[i + 2].is_punct("("))
                {
                    continue;
                }
                let recv = &toks[i - 1];
                if recv.kind != TokKind::Ident {
                    continue;
                }
                let name = recv.text.to_ascii_lowercase();
                if name.contains("cv") || name.contains("cond") {
                    out.push(Finding::new(
                        Lint::UnboundedWait,
                        &f.path,
                        toks[i + 1].line,
                        format!(
                            "bare `{}.wait(..)` blocks without a deadline; use a \
                             `wait_timeout` slice re-checked in a loop",
                            recv.text
                        ),
                    ));
                }
            }
        }
    }
}

/// Short lock-id prefix for a file path: `crates/core/src/shared.rs`
/// becomes `core/shared.rs`.
fn file_short(path: &str) -> String {
    let p = path.strip_prefix("crates/").unwrap_or(path);
    p.replace("/src/", "/")
}

fn build_models(files: &[LintFile]) -> Vec<FnModel> {
    let mut models = Vec::new();
    for (fi, f) in files.iter().enumerate() {
        let short = file_short(&f.path);
        for func in &f.fns {
            if func.is_test || LOCK_HELPERS.contains(&func.name.as_str()) {
                continue;
            }
            let Some((open, close)) = func.body else {
                continue;
            };
            let toks = &f.toks;
            // Brace depth per token within the body, relative to `open`.
            let mut depth = vec![0i64; close + 1 - open];
            let mut d = 0i64;
            for (k, slot) in depth.iter_mut().enumerate() {
                let t = &toks[open + k];
                if t.is_punct("{") {
                    d += 1;
                }
                *slot = d;
                if t.is_punct("}") {
                    d -= 1;
                }
            }
            let depth_at = |idx: usize| depth[idx - open];

            let mut acqs = Vec::new();
            let mut calls = Vec::new();
            let mut i = open + 1;
            while i < close {
                let t = &toks[i];
                // Acquisition: bare helper call `lock_unpoisoned(&path)` /
                // `lock(&path)`.
                let bare_helper = t.kind == TokKind::Ident
                    && LOCK_HELPERS.contains(&t.text.as_str())
                    && toks.get(i + 1).is_some_and(|t| t.is_punct("("))
                    && !toks[i - 1].is_punct(".")
                    && !toks[i - 1].is_ident("fn");
                // Acquisition: method call `path.lock()`.
                let method_lock = t.is_punct(".")
                    && toks.get(i + 1).is_some_and(|t| t.is_ident("lock"))
                    && toks.get(i + 2).is_some_and(|t| t.is_punct("("));
                if bare_helper || method_lock {
                    let (name, expr_start) = if bare_helper {
                        let end = crate::source::matching_brace_like(toks, i + 1, "(", ")");
                        let mut last = None;
                        for w in &toks[i + 2..end] {
                            if w.kind == TokKind::Ident && !is_keyword(&w.text) {
                                last = Some(w.text.clone());
                            }
                        }
                        (last.unwrap_or_else(|| "anon".into()), i)
                    } else {
                        // Walk the receiver path back to its start.
                        let mut s = i;
                        while s > open + 1 {
                            let p = &toks[s - 1];
                            let part_of_path = p.kind == TokKind::Ident
                                || p.is_punct(".")
                                || p.is_punct("::")
                                || p.is_punct("&");
                            if part_of_path
                                && !(p.kind == TokKind::Ident
                                    && is_keyword(&p.text)
                                    && !p.is_ident("self"))
                            {
                                s -= 1;
                            } else {
                                break;
                            }
                        }
                        let name = if toks[i - 1].kind == TokKind::Ident {
                            toks[i - 1].text.clone()
                        } else {
                            "anon".into()
                        };
                        (name, s)
                    };
                    let lock = format!("{short}#{name}");
                    let line = toks[i].line;
                    let scope_end = guard_scope_end(toks, open, close, expr_start, i, &depth_at);
                    acqs.push(Acq {
                        lock,
                        tok: i,
                        line,
                        scope_end,
                    });
                    i += if bare_helper { 2 } else { 3 };
                    continue;
                }
                // Call: `name (` — both free calls and method calls.
                if t.kind == TokKind::Ident
                    && !is_keyword(&t.text)
                    && !CALL_DENYLIST.contains(&t.text.as_str())
                    && toks.get(i + 1).is_some_and(|t| t.is_punct("("))
                {
                    calls.push((t.text.clone(), i, t.line));
                }
                i += 1;
            }
            models.push(FnModel {
                file: fi,
                name: func.name.clone(),
                acqs,
                calls,
            });
        }
    }
    models
}

/// Recover the guard's scope end (token index). A `let`-bound guard
/// lives to the end of its enclosing block or an explicit `drop(name)`;
/// a temporary lives to the end of its statement.
fn guard_scope_end(
    toks: &[Tok],
    open: usize,
    close: usize,
    expr_start: usize,
    _acq: usize,
    depth_at: &dyn Fn(usize) -> i64,
) -> usize {
    // `let [mut] NAME = <expr..>`?
    let mut binding: Option<&str> = None;
    if expr_start >= open + 3 && toks[expr_start - 1].is_punct("=") {
        let mut n = expr_start - 2;
        if toks[n].kind == TokKind::Ident && !is_keyword(&toks[n].text) {
            let name_idx = n;
            if n >= 1 && toks[n - 1].is_ident("mut") {
                n -= 1;
            }
            if n >= 1 && toks[n - 1].is_ident("let") {
                binding = Some(&toks[name_idx].text);
            }
        }
    }
    match binding {
        Some(name) => {
            let here = depth_at(expr_start);
            let mut k = expr_start + 1;
            while k < close {
                if depth_at(k) < here {
                    return k;
                }
                // Explicit `drop(name)`.
                if toks[k].is_ident("drop")
                    && toks.get(k + 1).is_some_and(|t| t.is_punct("("))
                    && toks.get(k + 2).is_some_and(|t| t.is_ident(name))
                    && toks.get(k + 3).is_some_and(|t| t.is_punct(")"))
                {
                    return k;
                }
                k += 1;
            }
            close
        }
        None => {
            // Temporary: to the end of the statement at this depth.
            let here = depth_at(expr_start);
            let mut k = expr_start + 1;
            while k < close {
                if toks[k].is_punct(";") && depth_at(k) <= here {
                    return k;
                }
                if depth_at(k) < here {
                    return k;
                }
                k += 1;
            }
            close
        }
    }
}
