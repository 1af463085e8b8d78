#![allow(clippy::unwrap_used)]

//! The template path over the front end's fidelity corpus.
//!
//! A server's result-cache miss no longer parses its text: it splits it into
//! a template and integers and looks the template's parse up
//! (`pdm_sql::template`). For every text `tests/golden/parse_corpus.txt`
//! holds — the statements sessions ship under every rule table, the
//! executor corpus, the DML shapes and some 400 edge texts, lexical errors
//! and `$1` among them — that path must give what `parse_query` gives: its
//! error, or its canonical print as the key and, bound, its query.

mod common;

use std::path::PathBuf;

use pdm_sql::parser::parse_query;
use pdm_sql::template::Templates;

use common::bind_query;

/// The texts of the corpus, each once, in recorded order.
fn corpus_texts() -> Vec<String> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/parse_corpus.txt");
    let corpus = std::fs::read_to_string(path).unwrap();
    let mut texts: Vec<String> = corpus
        .lines()
        .filter_map(|line| line.split_once(" sql \""))
        .map(|(_, quoted)| unescape(quoted.strip_suffix('"').unwrap()))
        .collect();
    let mut seen = std::collections::HashSet::new();
    texts.retain(|t| seen.insert(t.clone()));
    texts
}

/// Undo the `{:?}` escaping of a `str`.
fn unescape(debug: &str) -> String {
    let mut out = String::with_capacity(debug.len());
    let mut chars = debug.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next().unwrap() {
            'n' => out.push('\n'),
            'r' => out.push('\r'),
            't' => out.push('\t'),
            '0' => out.push('\0'),
            'u' => {
                let hex: String = chars.by_ref().skip(1).take_while(|&c| c != '}').collect();
                out.push(char::from_u32(u32::from_str_radix(&hex, 16).unwrap()).unwrap());
            }
            other => out.push(other),
        }
    }
    out
}

#[test]
fn every_corpus_text_resolves_to_its_parse() {
    let texts = corpus_texts();
    assert!(texts.len() > 1000, "{} texts", texts.len());
    let templates = Templates::default();
    let (mut holed, mut failed) = (0, 0);
    for text in &texts {
        match (parse_query(text), templates.resolve(text)) {
            (Ok(query), Ok(resolved)) => {
                assert_eq!(*resolved.key, query.to_string(), "key of {text:?}");
                let mut bound = resolved.template.query().clone();
                bind_query(&mut bound, &resolved.values);
                assert_eq!(bound, query, "bound template of {text:?}");
                holed += usize::from(!resolved.values.is_empty());
            }
            (Err(parse), Err(resolve)) => {
                assert_eq!(resolve, parse, "error of {text:?}");
                failed += 1;
            }
            (parse, resolve) => panic!(
                "{text:?}: parse_query {:?}, the template path {:?}",
                parse.map(|_| ()),
                resolve.map(|_| ())
            ),
        }
    }
    // The corpus exercises both sides: templates with values, and errors
    // (every statement that is not a query among them).
    assert!(
        holed > 500 && failed > 200,
        "{holed} with values, {failed} errors"
    );
}
