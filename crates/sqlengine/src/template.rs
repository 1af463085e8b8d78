//! A statement's shape, parsed once.
//!
//! The statements sessions ship come in a handful of shapes that differ
//! only in object ids — a navigational expand is one text per visible node —
//! and a result-cache miss used to parse and print each one in full to learn
//! its canonical key. `split` cuts a text into its *template*, the text
//! with each integer literal replaced by `$1`, `$2`, …, and those integers;
//! [`Templates`] keeps each template parsed once, its query holding
//! [`Expr::Param`](crate::ast::Expr::Param) where the text had a value, and
//! its canonical print cut where the values go; a template keeps its query
//! compiled, too ([`Template::run`]). A miss then costs one scan of its text,
//! one table probe and one splice, and runs the template's plan with the
//! values bound.
//!
//! Two kinds of literal stay in the template, because the parser reads
//! their values: one after a `-` (`-5`, `-(5)`, `- +5` fold into a negative
//! literal) and one after `LIMIT`. A text with a `$` anywhere — it can only
//! stand inside a string, a quoted name or a comment, elsewhere it is a
//! lexical error — keeps all of its integers, so that every `$` in the print
//! of a template with values is one of its holes.

use std::collections::HashMap;
use std::fmt::{self, Write as _};
use std::ops::Range;
use std::sync::Arc;

use pdm_obs::lock::{Lock, LockId};

use crate::ast::Query;
use crate::catalog::Catalog;
use crate::error::{Error, Result};
use crate::exec::plan::{compile, Plan};
use crate::exec::{ExecConfig, ExecStats};
use crate::lexer::{Kw, Lexer};
use crate::parser::{parse_query, parse_template};
use crate::ring::{Admit, Ring, Standing};
use crate::row::ResultSet;
use crate::value::Value;

/// Templates a [`Templates`] table holds.
const CAPACITY: usize = 1024;

/// A statement text cut into its template and the integers taken out of it.
#[derive(Debug, Clone, PartialEq)]
struct Split {
    /// The text with every integer the parser does not read replaced by
    /// `$n`, numbered from 1 in order of appearance.
    template: String,
    /// The integer `$n` replaced, at `n - 1`.
    values: Vec<Value>,
}

/// Cut `text` into its template and its integers (see the module docs), in
/// one pass over its bytes that tells apart only what the cut needs: string
/// literals, quoted names and comments (skipped whole), words (one of them
/// `LIMIT`), numbers (an integer or a float, as the lexer reads them), `-`,
/// and the `(` and `+` that may stand between a `-` and its literal. Every
/// other token is one or two bytes of punctuation. A text the lexer
/// rejects is rejected at the same token, with the lexer's error — the one
/// [`parse_query`] of the text reports, as both stop at the first.
fn split(text: &str) -> Result<Split> {
    let bytes = text.as_bytes();
    // Room for a few one-digit holes, which grow by a byte as `$n`.
    let mut template = String::with_capacity(text.len() + 16);
    let mut values = Vec::new();
    let holes = !text.contains('$');
    let mut copied = 0;
    // The integer next would be read by value: it follows `LIMIT`, or a `-`
    // with only `(` and `+` in between.
    let mut by_value = false;
    let mut at = 0;
    while let Some(&byte) = bytes.get(at) {
        let start = at;
        at += 1;
        let next = bytes.get(at).copied();
        by_value = match byte {
            b' ' | b'\t' | b'\r' | b'\n' | b'(' | b'+' => by_value,
            b'-' if next == Some(b'-') => {
                at = find(bytes, at, b'\n').unwrap_or(bytes.len());
                by_value
            }
            b'-' => true,
            b'a'..=b'z' | b'A'..=b'Z' | b'_' => {
                let word = bytes[at..].iter().position(|b| !WORD[usize::from(*b)]);
                at = word.map_or(bytes.len(), |len| at + len);
                bytes[start..at].eq_ignore_ascii_case(Kw::Limit.as_str().as_bytes())
            }
            b'0'..=b'9' => {
                let number;
                (at, number) = scan_number(bytes, start);
                match number {
                    Number::Int(n) if holes && !by_value => {
                        template.push_str(&text[copied..start]);
                        values.push(Value::Int(n));
                        let _ = write!(template, "${}", values.len());
                        copied = at;
                    }
                    Number::OutOfRange => return Err(lex_error(&text[start..])),
                    _ => {}
                }
                false
            }
            b'\'' => {
                // A quote byte is never part of a longer UTF-8 sequence.
                loop {
                    let Some(quote) = find(bytes, at, b'\'') else {
                        return Err(lex_error(&text[start..]));
                    };
                    at = quote + 1;
                    if bytes.get(at) != Some(&b'\'') {
                        break;
                    }
                    at += 1;
                }
                false
            }
            b'"' => {
                let Some(quote) = find(bytes, at, b'"') else {
                    return Err(lex_error(&text[start..]));
                };
                at = quote + 1;
                false
            }
            b'|' if next == Some(b'|') => {
                at += 1;
                false
            }
            b'!' if next == Some(b'=') => {
                at += 1;
                false
            }
            b')' | b',' | b'.' | b';' | b'*' | b'/' | b'%' | b'=' | b'<' | b'>' => false,
            // A lone `|` or `!`, a `$`, or no character of SQL.
            _ => return Err(lex_error(&text[start..])),
        };
    }
    template.push_str(&text[copied..]);
    Ok(Split { template, values })
}

/// The bytes that continue a word: ASCII letters and digits, and `_`.
static WORD: [bool; 256] = {
    let mut word = [false; 256];
    let mut b = 0;
    while b < 256 {
        word[b] = (b as u8).is_ascii_alphanumeric() || b == b'_' as usize;
        b += 1;
    }
    word
};

/// Where `byte` next stands in `bytes`, from `from` on.
fn find(bytes: &[u8], from: usize, byte: u8) -> Option<usize> {
    let at = bytes.get(from..)?.iter().position(|b| *b == byte)?;
    Some(from + at)
}

/// A number as [`Lexer`] reads one.
enum Number {
    Int(i64),
    /// An integer literal beyond `i64`: a lexical error.
    OutOfRange,
    Float,
}

/// The number starting at `start` of `bytes`, and where it ends.
fn scan_number(bytes: &[u8], start: usize) -> (usize, Number) {
    let digits = |mut i: usize| {
        while bytes.get(i).is_some_and(u8::is_ascii_digit) {
            i += 1;
        }
        i
    };
    let int_end = digits(start);
    let mut end = int_end;
    if bytes.get(end) == Some(&b'.') && bytes.get(end + 1).is_some_and(u8::is_ascii_digit) {
        end = digits(end + 1);
    }
    if matches!(bytes.get(end), Some(b'e' | b'E')) {
        let sign = usize::from(matches!(bytes.get(end + 1), Some(b'+' | b'-')));
        if bytes.get(end + 1 + sign).is_some_and(u8::is_ascii_digit) {
            end = digits(end + 1 + sign);
        }
    }
    if end > int_end {
        return (end, Number::Float);
    }
    let int = bytes[start..end].iter().try_fold(0i64, |n, b| {
        n.checked_mul(10)?.checked_add(i64::from(b - b'0'))
    });
    (end, int.map_or(Number::OutOfRange, Number::Int))
}

/// The lexical error [`split`] stopped at: the one the lexer reports for the
/// token `rest` starts with.
fn lex_error(rest: &str) -> Error {
    let mut lexer = Lexer::new(rest);
    loop {
        match lexer.next_token() {
            Ok(Some(_)) => {}
            Err(e) => return e,
            // The scan stops only where the lexer does (the differential
            // test holds it to that); never silently accept.
            Ok(None) => return Error::Lex(format!("unscanned text {rest:?}")),
        }
    }
}

/// A template parsed once: its query, its canonical print cut where the
/// values go, and its query's plan.
#[derive(Debug)]
pub struct Template {
    query: Query,
    /// What `parse_query(text)?.to_string()` is for every text this is the
    /// template of, but with `$n` where that has the value.
    print: String,
    /// Each `$n` of `print`: where it stands and which value it names.
    holes: Vec<(Range<usize>, usize)>,
    /// The query compiled once; held only to hand out or replace.
    plan: Lock<Option<Kept>>,
}

static PLAN: LockId = LockId::new("sql.template.plan", 80);

/// A template's plan, with what it was compiled on: a catalog of this
/// shape under this configuration.
struct Kept {
    shape: u64,
    config: ExecConfig,
    plan: Arc<Plan>,
}

impl fmt::Debug for Kept {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Kept")
            .field("shape", &self.shape)
            .finish_non_exhaustive()
    }
}

impl Template {
    /// `query`, the parse of a template split `with_values` or without:
    /// without, a `$` in its print is no hole.
    fn new(query: Query, with_values: bool) -> Self {
        let print = query.to_string();
        let holes = if with_values {
            holes(&print).collect()
        } else {
            Vec::new()
        };
        Template {
            query,
            print,
            holes,
            plan: Lock::new(&PLAN, None),
        }
    }

    /// The query, `$n` being [`Expr::Param`](crate::ast::Expr::Param)`(n - 1)`.
    pub fn query(&self) -> &Query {
        &self.query
    }

    /// Run the query with its `$n` bound to `values` on `catalog`: through
    /// the plan kept for the catalog's shape and `config`, or one compiled
    /// now — and kept, unless it is bound to these values
    /// ([`Plan::is_bound`]). Nothing is locked while it compiles or runs.
    pub fn run(
        &self,
        catalog: &Catalog,
        config: &ExecConfig,
        values: &[Value],
        obs: &pdm_obs::Recorder,
    ) -> Result<(ResultSet, ExecStats)> {
        let plan = match self.kept(catalog, config) {
            Some(plan) => plan,
            None => {
                let plan = compile(catalog, config, &self.query, values)?;
                if plan.is_bound() {
                    return plan.run(catalog, values, obs);
                }
                self.keep(catalog, config, plan)
            }
        };
        plan.run(catalog, values, obs)
    }

    /// The plan kept for `catalog`'s shape under `config`, if there is one.
    fn kept(&self, catalog: &Catalog, config: &ExecConfig) -> Option<Arc<Plan>> {
        let kept = self.plan.lock();
        let valid = kept.as_ref()?;
        (valid.shape == catalog.shape() && valid.config == *config).then(|| Arc::clone(&valid.plan))
    }

    /// Keep `plan`, compiled on `catalog` under `config`, in place of
    /// whatever was kept.
    fn keep(&self, catalog: &Catalog, config: &ExecConfig, plan: Plan) -> Arc<Plan> {
        let plan = Arc::new(plan);
        let kept = Kept {
            shape: catalog.shape(),
            config: config.clone(),
            plan: Arc::clone(&plan),
        };
        // What this replaces is freed once the lock is released.
        let _replaced = self.plan.lock().replace(kept);
        plan
    }

    /// Append the canonical key of the text that split into this template
    /// and `values`: its print with the values spliced in, byte for byte
    /// `parse_query(text)?.to_string()`.
    fn write_key(&self, values: &[Value], out: &mut String) {
        splice(&self.print, self.holes.iter().cloned(), values, out);
    }
}

/// Each `$n` of a template's print: its byte range and `n - 1`.
fn holes(print: &str) -> impl Iterator<Item = (Range<usize>, usize)> + '_ {
    print.match_indices('$').filter_map(|(at, _)| {
        let digits = print[at + 1..]
            .bytes()
            .take_while(u8::is_ascii_digit)
            .count();
        let n: usize = print[at + 1..at + 1 + digits].parse().ok()?;
        Some((at..at + 1 + digits, n.checked_sub(1)?))
    })
}

/// `print` with each of its `holes` replaced by the value it names (a hole
/// naming none is left as it is).
fn splice(
    print: &str,
    holes: impl Iterator<Item = (Range<usize>, usize)>,
    values: &[Value],
    out: &mut String,
) {
    let mut from = 0;
    for (hole, i) in holes {
        out.push_str(&print[from..hole.start]);
        match values.get(i) {
            Some(v) => {
                let _ = write!(out, "{v}");
            }
            None => out.push_str(&print[hole.clone()]),
        }
        from = hole.end;
    }
    out.push_str(&print[from..]);
}

/// The print of `e`, a part of a template's query, as the text the template
/// was split from has it: every `$n` replaced by `params[n - 1]` — and
/// whether it held one. What the compiler names an aggregate by and quotes
/// in an error.
pub(crate) fn print_bound(e: &impl fmt::Display, params: &[Value]) -> (String, bool) {
    let print = e.to_string();
    // With values, every `$` of a template's print is a hole.
    if params.is_empty() || !print.contains('$') {
        return (print, false);
    }
    let mut out = String::with_capacity(print.len());
    splice(&print, holes(&print), params, &mut out);
    (out, true)
}

/// A query text resolved through [`Templates`].
#[derive(Debug)]
pub struct Resolved {
    /// The text's canonical key: `parse_query(text)?.to_string()`.
    pub key: Arc<str>,
    pub template: Arc<Template>,
    /// What the template's `$n` are bound to.
    pub values: Vec<Value>,
}

/// A bounded table of templates, each parsed once. A template that does not
/// parse is remembered as such: the text it came from does not parse
/// either, and is parsed once more only to say why. A table of 1,024
/// templates keeps a new one only in place of one that went 2 × 1,024
/// template misses without being found ([`Ring`]).
#[derive(Debug)]
pub struct Templates {
    table: Lock<Table>,
}

static TEMPLATES: LockId = LockId::new("sql.templates", 70);

/// The templates, and the ring that bounds them.
#[derive(Debug)]
struct Table {
    known: HashMap<Arc<str>, Known>,
    ring: Ring<Arc<str>>,
}

/// A template in the table: its parse, and the ring's stamp when it was
/// last found or added.
#[derive(Debug)]
struct Known {
    parsed: Option<Arc<Template>>,
    used: u64,
}

impl Default for Templates {
    fn default() -> Self {
        let table = Table {
            known: HashMap::new(),
            ring: Ring::new(CAPACITY),
        };
        Templates {
            table: Lock::new(&TEMPLATES, table),
        }
    }
}

impl Templates {
    /// The canonical key of the query `text` and what to run for it: its
    /// template's query with the values bound. No parse and no print unless
    /// the template is new (or `text` does not parse).
    pub fn resolve(&self, text: &str) -> Result<Resolved> {
        let Split {
            template: mut buffer,
            values,
        } = split(text)?;
        let known = self.find(&buffer);
        let parsed = match known {
            Some(parsed) => parsed,
            None => {
                let parsed = parse_template(&buffer)
                    .ok()
                    .map(|query| Arc::new(Template::new(query, !values.is_empty())));
                self.insert(&buffer, parsed.clone());
                parsed
            }
        };
        let template = match parsed {
            Some(template) => template,
            // Unreachable but for the error: a template parses exactly when
            // the texts it is the template of do.
            None => Arc::new(Template::new(parse_query(text)?, false)),
        };
        // The template's text is done with: its buffer takes the key.
        buffer.clear();
        template.write_key(&values, &mut buffer);
        Ok(Resolved {
            key: buffer.as_str().into(),
            template,
            values,
        })
    }

    /// Templates in the table.
    pub fn len(&self) -> usize {
        self.table.lock().known.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The parse of `template`, if the table has it — a hit, stamped.
    fn find(&self, template: &str) -> Option<Option<Arc<Template>>> {
        let mut table = self.table.lock();
        let now = table.ring.now();
        let known = table.known.get_mut(template)?;
        known.used = now;
        Some(known.parsed.clone())
    }

    /// Count the miss on `template` and keep its parse, if the ring makes
    /// room for it; a template it displaces is freed once the lock is
    /// released.
    fn insert(&self, template: &str, parsed: Option<Arc<Template>>) {
        let mut table = self.table.lock();
        let Table { known, ring } = &mut *table;
        ring.miss();
        if known.contains_key(template) {
            // A concurrent miss on the same template kept its parse first.
            return;
        }
        let key: Arc<str> = template.into();
        let displaced = match ring.admit(&key, |victim| Standing {
            used: known[victim].used,
            stale: false,
        }) {
            Admit::Kept => None,
            Admit::Displaced(victim) => known.remove(&victim),
            Admit::Refused => return,
        };
        let used = ring.now();
        known.insert(key, Known { parsed, used });
        drop(table);
        drop(displaced);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Expr;
    use crate::error::Error;

    fn holes_of(text: &str) -> (String, Vec<i64>) {
        let Split { template, values } = split(text).unwrap();
        let ints = values
            .iter()
            .map(|v| match v {
                Value::Int(n) => *n,
                other => panic!("{other}"),
            })
            .collect();
        (template, ints)
    }

    #[test]
    fn integers_become_holes_except_where_the_parser_reads_them() {
        assert_eq!(
            holes_of("SELECT a FROM t WHERE a = 17 AND b IN (3, 007) ORDER BY 1 LIMIT 5"),
            (
                "SELECT a FROM t WHERE a = $1 AND b IN ($2, $3) ORDER BY $4 LIMIT 5".into(),
                vec![17, 3, 7, 1]
            )
        );
        // The negation fold, through parentheses and `+`; a float, a name
        // and a comment hold no integer.
        assert_eq!(
            holes_of("SELECT -5, - (+ 6), -(7 + 8), 1.5, 2e3, t1.c9 -- 10\n FROM t"),
            (
                "SELECT -5, - (+ 6), -(7 + $1), 1.5, 2e3, t1.c9 -- 10\n FROM t".into(),
                vec![8]
            )
        );
        // A `$` anywhere keeps every integer.
        assert_eq!(
            holes_of("SELECT 'a$1', 2 FROM t"),
            ("SELECT 'a$1', 2 FROM t".into(), vec![])
        );
    }

    #[test]
    fn a_lexical_error_is_the_parse_error() {
        for text in [
            "SELECT $1",
            "SELECT 1 FROM t WHERE 'open",
            "SELECT 99999999999999999999",
        ] {
            assert_eq!(split(text).unwrap_err(), parse_query(text).unwrap_err());
        }
    }

    /// The split as it was before [`split`] scanned bytes itself: driven by
    /// the lexer's tokens. The oracle of the two tests below.
    fn split_by_tokens(text: &str) -> Result<Split> {
        use crate::lexer::Token;
        let mut template = String::with_capacity(text.len() + 16);
        let mut values = Vec::new();
        let holes = !text.contains('$');
        let mut lexer = Lexer::new(text);
        let mut copied = 0;
        let mut by_value = false;
        while let Some(token) = lexer.next_token()? {
            match token {
                Token::Int(n) if holes && !by_value => {
                    let end = lexer.position();
                    let digits = text[..end].bytes().rev().take_while(u8::is_ascii_digit);
                    template.push_str(&text[copied..end - digits.count()]);
                    values.push(Value::Int(n));
                    let _ = write!(template, "${}", values.len());
                    copied = end;
                }
                Token::Minus | Token::Kw(Kw::Limit) => by_value = true,
                Token::LParen | Token::Plus => {}
                _ => by_value = false,
            }
        }
        template.push_str(&text[copied..]);
        Ok(Split { template, values })
    }

    /// `split(text)` is the token-driven split's, and an error is the
    /// parse's.
    fn assert_splits_as_the_lexer_does(text: &str) {
        let split = split(text);
        assert_eq!(split, split_by_tokens(text), "split of {text:?}");
        if let Err(e) = split {
            assert_eq!(Err(e), parse_query(text).map(drop), "error of {text:?}");
        }
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
    fn the_byte_scan_splits_every_corpus_text_as_the_lexer_does() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/parse_corpus.txt");
        let corpus = std::fs::read_to_string(path).unwrap();
        let texts: Vec<String> = corpus
            .lines()
            .filter_map(|line| line.split_once(" sql \""))
            .map(|(_, quoted)| unescape(quoted.strip_suffix('"').unwrap()))
            .collect();
        assert!(texts.len() > 1000, "{} texts", texts.len());
        let failing = texts.iter().filter(|t| split(t).is_err()).count();
        assert!(failing > 20, "{failing} lexical errors");
        for text in &texts {
            assert_splits_as_the_lexer_does(text);
        }
    }

    #[test]
    fn the_byte_scan_splits_random_texts_as_the_lexer_does() {
        // What the scan must tell apart, and what it must reject.
        const PIECES: &[&str] = &[
            "0",
            "7",
            "42",
            "007",
            "9223372036854775807",
            "9223372036854775808",
            "99999999999999999999",
            "1.5",
            "2.",
            "3e",
            "4e+",
            "5e-2",
            "1E9",
            "6e99999999999999999999",
            "e",
            "E",
            "-",
            "--",
            "(",
            "+",
            ")",
            ".",
            "'",
            "''",
            "\"",
            "$",
            "$1",
            "\n",
            " ",
            "\t",
            "LIMIT",
            "limit",
            "Limit",
            "|",
            "||",
            "!",
            "!=",
            "é",
            "a",
            "x1",
            "_",
            "SELECT",
            "FROM",
            "t",
            "WHERE",
            "=",
            "<>",
            ">=",
            ",",
            "*",
            "/",
            "%",
            ";",
            "-- c\n",
            "'s$'",
            "\"Q\"",
            "\r",
            "#",
            "\u{b}",
        ];
        let mut rng = pdm_prng::Prng::seed_from_u64(0x5b17);
        let (mut split_ok, mut holed) = (0, 0);
        for _ in 0..25_000 {
            let mut text = String::new();
            for _ in 0..rng.usize_inclusive(1, 16) {
                text.push_str(PIECES[rng.index(PIECES.len())]);
                if rng.index(3) == 0 {
                    text.push(' ');
                }
            }
            assert_splits_as_the_lexer_does(&text);
            if let Ok(Split { values, .. }) = split(&text) {
                split_ok += 1;
                holed += usize::from(!values.is_empty());
            }
        }
        // Both sides of the scan are reached.
        assert!(
            split_ok > 2_000 && holed > 1_000,
            "{split_ok} split, {holed} with values"
        );
    }

    #[test]
    fn a_resolved_text_has_its_parse_key_and_binds_its_values() {
        let templates = Templates::default();
        for (i, text) in [
            "select a from T where a=17 order by 1",
            "SELECT a FROM t WHERE a = 18 ORDER BY 2",
        ]
        .into_iter()
        .enumerate()
        {
            let r = templates.resolve(text).unwrap();
            assert_eq!(&*r.key, parse_query(text).unwrap().to_string());
            assert_eq!(
                r.values,
                [Value::Int(17 + i as i64), Value::Int(1 + i as i64)]
            );
            assert_eq!(r.template.query().order_by[0].expr, Expr::Param(1));
        }
        // Two spellings, one template each.
        assert_eq!(templates.len(), 2);
    }

    #[test]
    fn a_template_that_does_not_parse_is_kept_and_the_text_says_why() {
        let templates = Templates::default();
        let text = "SELECT a FROM t WHERE a = 1 AND";
        for _ in 0..2 {
            assert_eq!(
                templates.resolve(text).unwrap_err(),
                parse_query(text).unwrap_err()
            );
        }
        assert_eq!(templates.len(), 1);
        assert!(matches!(
            templates.resolve("UPDATE t SET a = 1"),
            Err(Error::Parse(_))
        ));
    }

    /// Resolve the `i`-th test template through `templates`.
    fn resolve_nth(templates: &Templates, i: usize) {
        templates
            .resolve(&format!("SELECT c{i} FROM t WHERE a = 1"))
            .unwrap();
    }

    /// Does `templates` hold the `i`-th test template? (A hit: it stamps.)
    fn holds_nth(templates: &Templates, i: usize) -> bool {
        templates
            .find(&format!("SELECT c{i} FROM t WHERE a = $1"))
            .is_some()
    }

    #[test]
    fn a_full_table_keeps_its_templates() {
        let templates = Templates::default();
        for i in 0..=CAPACITY {
            resolve_nth(&templates, i);
        }
        assert_eq!(templates.len(), CAPACITY);
        assert!(holds_nth(&templates, 0), "the table was emptied");
        assert!(
            !holds_nth(&templates, CAPACITY),
            "a live template was displaced"
        );
    }

    #[test]
    fn an_idle_template_gives_up_its_place() {
        let templates = Templates::default();
        for i in 0..CAPACITY {
            resolve_nth(&templates, i);
        }
        // Two table-fulls of misses, during which only template 1 is found.
        for i in CAPACITY..3 * CAPACITY {
            resolve_nth(&templates, 1);
            resolve_nth(&templates, i);
        }
        assert_eq!(templates.len(), CAPACITY);
        assert!(!holds_nth(&templates, 0), "an idle template kept its place");
        assert!(holds_nth(&templates, 1), "a template in use was displaced");
    }

    #[test]
    fn print_bound_splices_the_values_back() {
        let e = Expr::binary(Expr::col("a"), crate::ast::BinOp::Plus, Expr::Param(1));
        assert_eq!(print_bound(&e, &[]), ("a + $2".into(), false));
        let values = [Value::Int(4), Value::Int(5)];
        assert_eq!(print_bound(&e, &values), ("a + 5".into(), true));
        assert_eq!(print_bound(&Expr::col("a"), &values), ("a".into(), false));
    }
}
