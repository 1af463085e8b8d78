//! Structural recovery on top of the token stream: test-region masking,
//! function tables, and the workspace file walker.

use std::collections::BTreeSet;
use std::fs;
use std::io;
use std::path::Path;

use crate::lex::{lex, AllowMarker, Tok, TokKind};

/// A lexed source file plus the structural facts every lint needs.
#[derive(Debug)]
pub struct LintFile {
    /// Repo-relative path with forward slashes (e.g. `crates/core/src/shared.rs`).
    pub path: String,
    pub toks: Vec<Tok>,
    pub allows: Vec<AllowMarker>,
    /// Per-token flag: true when the token sits inside a `#[cfg(test)]`
    /// item or a `#[test]` function. Lints skip masked tokens.
    pub test_mask: Vec<bool>,
    /// Functions found in the file (including test fns, flagged).
    pub fns: Vec<FnInfo>,
}

/// One `fn` item recovered from the token stream.
#[derive(Debug)]
pub struct FnInfo {
    pub name: String,
    /// Parameter binding names (best effort; `self` excluded).
    pub params: Vec<String>,
    /// Token index of the body's `{` and its matching `}` (inclusive).
    /// `None` for bodiless declarations (trait methods).
    pub body: Option<(usize, usize)>,
    /// Token index of the `fn` keyword (signature start).
    pub sig_start: usize,
    pub line: u32,
    pub is_test: bool,
}

impl LintFile {
    pub fn parse(path: &str, src: &str) -> LintFile {
        let lexed = lex(src);
        let test_mask = compute_test_mask(&lexed.toks);
        let fns = collect_fns(&lexed.toks, &test_mask);
        LintFile {
            path: path.to_string(),
            toks: lexed.toks,
            allows: lexed.allows,
            test_mask,
            fns,
        }
    }

    /// Lines (1-based) that fall inside test regions — used to exempt
    /// allow markers written inside tests from hygiene checking.
    pub fn test_lines(&self) -> BTreeSet<u32> {
        self.toks
            .iter()
            .zip(&self.test_mask)
            .filter(|(_, m)| **m)
            .map(|(t, _)| t.line)
            .collect()
    }
}

/// Find the matching `}` for the `{` at `open` (token index).
/// Returns the index of the closing brace, or the last token on overflow.
pub fn matching_brace(toks: &[Tok], open: usize) -> usize {
    matching_brace_like(toks, open, "{", "}")
}

/// Generic matching close delimiter for the open one at `open`.
pub fn matching_brace_like(toks: &[Tok], open: usize, o: &str, c: &str) -> usize {
    let mut depth = 0i64;
    for (k, t) in toks.iter().enumerate().skip(open) {
        if t.is_punct(o) {
            depth += 1;
        } else if t.is_punct(c) {
            depth -= 1;
            if depth == 0 {
                return k;
            }
        }
    }
    toks.len().saturating_sub(1)
}

/// Mark every token covered by `#[cfg(test)]` items or `#[test]` fns.
fn compute_test_mask(toks: &[Tok]) -> Vec<bool> {
    let mut mask = vec![false; toks.len()];
    let mut i = 0usize;
    while i < toks.len() {
        if !toks[i].is_punct("#") || !toks.get(i + 1).is_some_and(|t| t.is_punct("[")) {
            i += 1;
            continue;
        }
        // Inspect the attribute body.
        let attr_start = i;
        let mut j = i + 2;
        let mut depth = 1i64;
        let mut is_test_attr = false;
        let mut saw_cfg = false;
        while j < toks.len() && depth > 0 {
            if toks[j].is_punct("[") {
                depth += 1;
            } else if toks[j].is_punct("]") {
                depth -= 1;
            } else if toks[j].is_ident("cfg") {
                saw_cfg = true;
            } else if toks[j].is_ident("test") {
                // `#[test]` or `#[cfg(test)]` / `#[cfg(all(test, ..))]`.
                if saw_cfg || j == i + 2 {
                    is_test_attr = true;
                }
            }
            j += 1;
        }
        if !is_test_attr {
            i = j;
            continue;
        }
        // Skip any further attributes stacked on the same item.
        let mut k = j;
        while k < toks.len()
            && toks[k].is_punct("#")
            && toks.get(k + 1).is_some_and(|t| t.is_punct("["))
        {
            let mut d = 1i64;
            k += 2;
            while k < toks.len() && d > 0 {
                if toks[k].is_punct("[") {
                    d += 1;
                } else if toks[k].is_punct("]") {
                    d -= 1;
                }
                k += 1;
            }
        }
        // The item runs to its body's closing brace, or to a `;`.
        let mut end = k;
        while end < toks.len() {
            if toks[end].is_punct("{") {
                end = matching_brace(toks, end);
                break;
            }
            if toks[end].is_punct(";") {
                break;
            }
            end += 1;
        }
        for m in mask
            .iter_mut()
            .take((end + 1).min(toks.len()))
            .skip(attr_start)
        {
            *m = true;
        }
        i = end + 1;
    }
    mask
}

/// Rust keywords that can directly precede `[` or otherwise look like
/// expression heads but are not.
pub const KEYWORDS: &[&str] = &[
    "as", "break", "const", "continue", "crate", "dyn", "else", "enum", "extern", "false", "fn",
    "for", "if", "impl", "in", "let", "loop", "match", "mod", "move", "mut", "pub", "ref",
    "return", "self", "Self", "static", "struct", "super", "trait", "true", "type", "unsafe",
    "use", "where", "while", "async", "await",
];

pub fn is_keyword(text: &str) -> bool {
    KEYWORDS.contains(&text)
}

fn collect_fns(toks: &[Tok], mask: &[bool]) -> Vec<FnInfo> {
    let mut fns = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        if !toks[i].is_ident("fn") {
            i += 1;
            continue;
        }
        let Some(name_tok) = toks.get(i + 1) else {
            break;
        };
        if name_tok.kind != TokKind::Ident {
            i += 1;
            continue;
        }
        let name = name_tok.text.clone();
        let line = name_tok.line;
        // Find the parameter list opening paren (skipping generics).
        let mut j = i + 2;
        let mut angle = 0i64;
        while j < toks.len() {
            if toks[j].is_punct("<") {
                angle += 1;
            } else if toks[j].is_punct(">") {
                angle -= 1;
            } else if toks[j].is_punct("(") && angle <= 0 {
                break;
            }
            j += 1;
        }
        // Parameter names: `ident :` at paren depth 1.
        let mut params = Vec::new();
        let mut depth = 0i64;
        let mut k = j;
        while k < toks.len() {
            if toks[k].is_punct("(") {
                depth += 1;
            } else if toks[k].is_punct(")") {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            } else if depth == 1
                && toks[k].kind == TokKind::Ident
                && !is_keyword(&toks[k].text)
                && toks.get(k + 1).is_some_and(|t| t.is_punct(":"))
                && toks
                    .get(k.wrapping_sub(1))
                    .is_none_or(|t| !t.is_punct(":") && !t.is_punct("::"))
            {
                params.push(toks[k].text.clone());
            }
            k += 1;
        }
        // Body: next `{` before a `;`.
        let mut body = None;
        let mut b = k + 1;
        while b < toks.len() {
            if toks[b].is_punct(";") {
                break;
            }
            if toks[b].is_punct("{") {
                body = Some((b, matching_brace(toks, b)));
                break;
            }
            b += 1;
        }
        let is_test = mask.get(i).copied().unwrap_or(false);
        fns.push(FnInfo {
            name,
            params,
            body,
            sig_start: i,
            line,
            is_test,
        });
        i += 2;
    }
    fns
}

/// Crates excluded from linting. The bench harness is measurement
/// plumbing, not protocol code (the `clippy.toml` bans still reach it), and
/// this crate's own fixtures would self-flag.
const SKIP_CRATES: &[&str] = &["bench", "lint"];

/// Collect `(path, contents)` for every linted source file under `root`,
/// in deterministic path order: `crates/*/src/**/*.rs` (minus skipped
/// crates) plus the workspace root `src/` if present. `tests/` and
/// `examples/` directories are out of scope — they are test surface.
pub fn collect_workspace(root: &Path) -> io::Result<Vec<(String, String)>> {
    let mut files = Vec::new();
    let crates_dir = root.join("crates");
    let mut crate_names: Vec<String> = Vec::new();
    if crates_dir.is_dir() {
        for entry in fs::read_dir(&crates_dir)? {
            let entry = entry?;
            if entry.path().is_dir() {
                crate_names.push(entry.file_name().to_string_lossy().into_owned());
            }
        }
    }
    crate_names.sort();
    for name in crate_names {
        if SKIP_CRATES.contains(&name.as_str()) {
            continue;
        }
        let src = crates_dir.join(&name).join("src");
        if src.is_dir() {
            walk_rs(&src, &format!("crates/{name}/src"), &mut files)?;
        }
    }
    let root_src = root.join("src");
    if root_src.is_dir() {
        walk_rs(&root_src, "src", &mut files)?;
    }
    files.sort_by(|a, b| a.0.cmp(&b.0));
    Ok(files)
}

fn walk_rs(dir: &Path, rel: &str, out: &mut Vec<(String, String)>) -> io::Result<()> {
    let mut entries: Vec<_> = fs::read_dir(dir)?.collect::<io::Result<Vec<_>>>()?;
    entries.sort_by_key(|e| e.file_name());
    for entry in entries {
        let path = entry.path();
        let name = entry.file_name().to_string_lossy().into_owned();
        if path.is_dir() {
            walk_rs(&path, &format!("{rel}/{name}"), out)?;
        } else if name.ends_with(".rs") {
            let text = fs::read_to_string(&path)?;
            out.push((format!("{rel}/{name}"), text));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cfg_test_regions_are_masked() {
        let src = "fn live() { x(); }\n#[cfg(test)]\nmod tests {\n fn dead() { y(); }\n}\nfn live2() {}\n";
        let f = LintFile::parse("a.rs", src);
        let masked: Vec<&str> = f
            .toks
            .iter()
            .zip(&f.test_mask)
            .filter(|(_, m)| **m)
            .map(|(t, _)| t.text.as_str())
            .collect();
        assert!(masked.contains(&"dead"));
        assert!(!masked.contains(&"live"));
        assert!(!masked.contains(&"live2"));
    }

    #[test]
    fn test_attribute_masks_following_fn() {
        let src = "#[test]\nfn probe() { z(); }\nfn real() {}\n";
        let f = LintFile::parse("a.rs", src);
        let probe = f.fns.iter().find(|f| f.name == "probe").unwrap();
        let real = f.fns.iter().find(|f| f.name == "real").unwrap();
        assert!(probe.is_test);
        assert!(!real.is_test);
    }

    #[test]
    fn fn_table_captures_params_and_body() {
        let src = "pub fn apply_batch(&mut self, epoch: u64, records: &[(u64, W)]) -> R { body() }";
        let f = LintFile::parse("a.rs", src);
        assert_eq!(f.fns.len(), 1);
        assert_eq!(f.fns[0].name, "apply_batch");
        assert_eq!(f.fns[0].params, vec!["epoch", "records"]);
        let (open, close) = f.fns[0].body.unwrap();
        assert!(f.toks[open].is_punct("{"));
        assert!(f.toks[close].is_punct("}"));
    }

    #[test]
    fn generic_fn_params_are_found_past_angle_brackets() {
        let src = "fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> { m.lock().unwrap() }";
        let f = LintFile::parse("a.rs", src);
        assert_eq!(f.fns[0].params, vec!["m"]);
    }
}
