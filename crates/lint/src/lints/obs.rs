//! Observability lint: an enabled recorder is constructed only by an
//! action's owner. The span-kind and metric-family registries need no lint:
//! `pdm-obs` alone can make a `SpanKind` or a `Family`, so rustc closes them.

use crate::registry::{Finding, Lint};
use crate::source::LintFile;

pub fn run(files: &[LintFile], out: &mut Vec<Finding>) {
    for f in files {
        stray_recorder(f, out);
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
