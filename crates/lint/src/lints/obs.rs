//! Observability-closure lints: metric families and span kinds must be
//! members of closed registries, timeout-shaped session errors must carry
//! a flight-recorder dump, and an enabled recorder is constructed only by
//! an action's owner.

use crate::lex::TokKind;
use crate::registry::{Finding, Lint};
use crate::schema::Registries;
use crate::source::{matching_brace, matching_brace_like, LintFile};

pub fn run(files: &[LintFile], reg: &Registries, out: &mut Vec<Finding>) {
    for f in files {
        metric_families(f, reg, out);
        span_kinds(f, out);
        timeout_context(f, reg, out);
        stray_recorder(f, out);
    }
}

const METRIC_METHODS: &[&str] = &["counter", "gauge", "histogram"];

/// `.counter("name")` / `.gauge(..)` / `.histogram(..)`: the name must
/// be a literal member of the closed family registry. Registration via
/// a non-literal defeats the closure property and is flagged as such.
fn metric_families(f: &LintFile, reg: &Registries, out: &mut Vec<Finding>) {
    if reg.metric_families.is_empty() || f.path.ends_with("crates/obs/src/metrics.rs") {
        return;
    }
    let toks = &f.toks;
    for (i, t) in toks.iter().enumerate() {
        if f.test_mask[i] || !t.is_punct(".") {
            continue;
        }
        let Some(m) = toks.get(i + 1) else { continue };
        if !METRIC_METHODS.contains(&m.text.as_str())
            || !toks.get(i + 2).is_some_and(|t| t.is_punct("("))
        {
            continue;
        }
        let Some(arg) = toks.get(i + 3) else { continue };
        match arg.kind {
            TokKind::Str => {
                if !reg.metric_families.contains(&arg.text) {
                    out.push(Finding::new(
                        Lint::MetricFamilyUnknown,
                        &f.path,
                        arg.line,
                        format!(
                            "metric \"{}\" is not in pdm_obs::metrics::families::ALL — \
                             add it to the closed registry or fix the name",
                            arg.text
                        ),
                    ));
                }
            }
            TokKind::Punct if arg.is_punct(")") => {}
            _ => {
                out.push(Finding::new(
                    Lint::MetricFamilyUnknown,
                    &f.path,
                    arg.line,
                    format!(
                        ".{}() called with a non-literal name — dynamic metric names \
                         defeat the closed family registry",
                        m.text
                    ),
                ));
            }
        }
    }
}

/// `SpanKind::new(..)` is only legal inside the `kinds` registry module
/// in crates/obs/src/span.rs.
fn span_kinds(f: &LintFile, out: &mut Vec<Finding>) {
    if f.path.ends_with("crates/obs/src/span.rs") {
        return;
    }
    let toks = &f.toks;
    for (i, t) in toks.iter().enumerate() {
        if f.test_mask[i] || !t.is_ident("SpanKind") {
            continue;
        }
        if toks.get(i + 1).is_some_and(|t| t.is_punct("::"))
            && toks.get(i + 2).is_some_and(|t| t.is_ident("new"))
        {
            out.push(Finding::new(
                Lint::SpanKindUnregistered,
                &f.path,
                t.line,
                "SpanKind constructed outside the closed kinds registry in pdm-obs \
                 — register the kind there instead",
            ));
        }
    }
}

/// An enabled recorder is one action's observation context, and an action
/// has one owner (DESIGN.md §11): `Recorder::new()` is legal only where an
/// owner turns profiling on — a function named `enable_profiling` — and in
/// tests. Everything else is handed the owner's recorder (or a disabled
/// one); a second always-on recorder beside it is an instrument nothing
/// assembles and nobody reads.
fn stray_recorder(f: &LintFile, out: &mut Vec<Finding>) {
    let toks = &f.toks;
    for (i, t) in toks.iter().enumerate() {
        if f.test_mask[i]
            || !t.is_ident("Recorder")
            || !toks.get(i + 1).is_some_and(|t| t.is_punct("::"))
            || !toks.get(i + 2).is_some_and(|t| t.is_ident("new"))
            || !toks.get(i + 3).is_some_and(|t| t.is_punct("("))
        {
            continue;
        }
        let innermost = f
            .fns
            .iter()
            .filter(|func| func.body.is_some_and(|(open, close)| open < i && i < close))
            .max_by_key(|func| func.sig_start);
        if innermost.is_some_and(|func| func.name == "enable_profiling") {
            continue;
        }
        out.push(Finding::new(
            Lint::StrayRecorder,
            &f.path,
            t.line,
            format!(
                "enabled Recorder constructed in {} — only an action owner's \
                 enable_profiling may; take the owner's recorder as an argument",
                innermost.map_or("no function".to_string(), |func| format!(
                    "fn {}",
                    func.name
                )),
            ),
        ));
    }
}

/// A construction `SessionError::<TimeoutShaped> { .. fields .. }` must
/// mention `context` (patterns are excused by the `..` rest syntax).
fn timeout_context(f: &LintFile, reg: &Registries, out: &mut Vec<Finding>) {
    if reg.timeout_variants.is_empty() {
        return;
    }
    let toks = &f.toks;
    for (i, t) in toks.iter().enumerate() {
        if f.test_mask[i] || !t.is_ident("SessionError") {
            continue;
        }
        let Some(v) = toks.get(i + 2) else { continue };
        if !toks.get(i + 1).is_some_and(|t| t.is_punct("::"))
            || !reg.timeout_variants.iter().any(|tv| v.is_ident(tv))
            || !toks.get(i + 3).is_some_and(|t| t.is_punct("{"))
        {
            continue;
        }
        let close = matching_brace(toks, i + 3);
        let body = &toks[i + 4..close];
        // Only inspect this construction's own depth-0 fields: nested
        // braces (e.g. a FlightDump construction) are skipped.
        let mut has_context = false;
        let mut has_rest = false;
        let mut d = 0i64;
        let mut k = 0usize;
        while k < body.len() {
            let b = &body[k];
            if b.is_punct("{") || b.is_punct("(") || b.is_punct("[") {
                d += 1;
                // Skip the nested region entirely.
                let open_txt = b.text.as_str();
                let close_txt = match open_txt {
                    "{" => "}",
                    "(" => ")",
                    _ => "]",
                };
                let end = matching_brace_like(&toks[i + 4..close], k, open_txt, close_txt);
                k = end;
                d -= 1;
            } else if d == 0 {
                if b.is_ident("context") {
                    has_context = true;
                }
                if b.is_punct("..") {
                    has_rest = true;
                }
            }
            k += 1;
        }
        if !has_context && !has_rest {
            out.push(Finding::new(
                Lint::TimeoutWithoutFlight,
                &f.path,
                v.line,
                format!(
                    "SessionError::{} built without FlightDump context — timeout-shaped \
                     errors must carry the flight recorder dump",
                    v.text
                ),
            ));
        }
    }
}
