//! A minimal Rust lexer sufficient for token-level static analysis.
//!
//! The analyzer does not parse Rust; it works on the token stream plus a
//! handful of structural recoveries (brace matching, `#[cfg(test)]`
//! region masking, function tables). The lexer therefore only needs to
//! classify tokens and — critically — get string literals, character
//! literals, lifetimes, and comments right so that nothing inside them
//! is ever mistaken for code.
//!
//! Comments are not discarded entirely: `lint:allow(<lint-id>): <reason>`
//! markers are extracted from them and drive the suppression layer (see
//! [`crate::registry`]).

/// Token classification. Deliberately coarse: the lints only ever care
/// about identifiers, literals, and punctuation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (including `_`).
    Ident,
    /// Numeric literal (integer or float, any radix).
    Number,
    /// String literal; `text` holds the *contents* without quotes.
    Str,
    /// Character or byte literal.
    Char,
    /// Lifetime such as `'a` (also the `'static` keyword).
    Lifetime,
    /// Operator / delimiter, longest-match up to three characters.
    Punct,
}

/// One lexed token with its 1-based source line.
#[derive(Debug, Clone)]
pub struct Tok {
    pub kind: TokKind,
    pub text: String,
    pub line: u32,
}

impl Tok {
    pub fn is(&self, kind: TokKind, text: &str) -> bool {
        self.kind == kind && self.text == text
    }

    pub fn is_ident(&self, text: &str) -> bool {
        self.is(TokKind::Ident, text)
    }

    pub fn is_punct(&self, text: &str) -> bool {
        self.is(TokKind::Punct, text)
    }
}

/// A `lint:allow(<id>): <reason>` or `lint:allow-file(<id>): <reason>`
/// marker found in a comment.
#[derive(Debug, Clone)]
pub struct AllowMarker {
    /// 1-based line of the comment line holding the marker.
    pub line: u32,
    /// The lint id being suppressed (not yet validated).
    pub id: String,
    /// Free-text justification after the closing paren (may be empty,
    /// which the hygiene lint rejects).
    pub reason: String,
    /// True for `lint:allow-file(..)`: suppresses the named lint for the
    /// whole file instead of a window of nearby lines. Reserved for
    /// framing-style code where per-site markers would dominate the file.
    pub file_scope: bool,
}

/// Lexer output: the token stream and any allow markers seen in comments.
#[derive(Debug, Default)]
pub struct Lexed {
    pub toks: Vec<Tok>,
    pub allows: Vec<AllowMarker>,
}

fn is_ident_start(c: char) -> bool {
    c == '_' || c.is_alphabetic()
}

fn is_ident_continue(c: char) -> bool {
    c == '_' || c.is_alphanumeric()
}

/// Multi-character operators, longest first within each length class.
const PUNCT3: &[&str] = &["..=", "...", "<<=", ">>="];
const PUNCT2: &[&str] = &[
    "::", "->", "=>", "==", "!=", "<=", ">=", "+=", "-=", "*=", "/=", "%=", "&&", "||", "..", "<<",
    ">>", "&=", "|=", "^=",
];

/// Scan a comment's text for `lint:allow(...)` and
/// `lint:allow-file(...)` markers.
fn scan_markers(text: &str, line: u32, out: &mut Vec<AllowMarker>) {
    scan_marker_form(text, line, "lint:allow(", false, out);
    scan_marker_form(text, line, "lint:allow-file(", true, out);
}

fn scan_marker_form(
    text: &str,
    line: u32,
    needle: &str,
    file_scope: bool,
    out: &mut Vec<AllowMarker>,
) {
    let mut rest = text;
    let mut line = line;
    loop {
        // Advance the line counter for markers inside block comments.
        let Some(pos) = rest.find(needle) else {
            return;
        };
        line += rest[..pos].matches('\n').count() as u32;
        let after = &rest[pos + needle.len()..];
        let Some(close) = after.find(')') else {
            return;
        };
        let id = after[..close].trim().to_string();
        let tail = &after[close + 1..];
        let reason = tail
            .strip_prefix(':')
            .map(|r| {
                let line_end = r.find('\n').unwrap_or(r.len());
                r[..line_end].trim().to_string()
            })
            .unwrap_or_default();
        out.push(AllowMarker {
            line,
            id,
            reason,
            file_scope,
        });
        rest = tail;
    }
}

/// Lex `src` into tokens and allow markers. Never fails: unterminated
/// constructs simply consume to end of input (the workspace being linted
/// must already compile, so this path only matters for fixtures).
pub fn lex(src: &str) -> Lexed {
    let chars: Vec<char> = src.chars().collect();
    let mut out = Lexed::default();
    let mut i = 0usize;
    let mut line = 1u32;

    macro_rules! push {
        ($kind:expr, $text:expr, $line:expr) => {
            out.toks.push(Tok {
                kind: $kind,
                text: $text,
                line: $line,
            })
        };
    }

    while i < chars.len() {
        let c = chars[i];
        if c == '\n' {
            line += 1;
            i += 1;
            continue;
        }
        if c.is_whitespace() {
            i += 1;
            continue;
        }
        // Line comment.
        if c == '/' && chars.get(i + 1) == Some(&'/') {
            let start = i;
            while i < chars.len() && chars[i] != '\n' {
                i += 1;
            }
            let text: String = chars[start..i].iter().collect();
            scan_markers(&text, line, &mut out.allows);
            continue;
        }
        // Block comment (nested).
        if c == '/' && chars.get(i + 1) == Some(&'*') {
            let start = i;
            let start_line = line;
            let mut depth = 1;
            i += 2;
            while i < chars.len() && depth > 0 {
                if chars[i] == '/' && chars.get(i + 1) == Some(&'*') {
                    depth += 1;
                    i += 2;
                } else if chars[i] == '*' && chars.get(i + 1) == Some(&'/') {
                    depth -= 1;
                    i += 2;
                } else {
                    if chars[i] == '\n' {
                        line += 1;
                    }
                    i += 1;
                }
            }
            let text: String = chars[start..i].iter().collect();
            scan_markers(&text, start_line, &mut out.allows);
            continue;
        }
        // Identifier, keyword, or a raw/byte string prefix.
        if is_ident_start(c) {
            let start = i;
            while i < chars.len() && is_ident_continue(chars[i]) {
                i += 1;
            }
            let text: String = chars[start..i].iter().collect();
            // Raw / byte string forms: r"..", r#".."#, b"..", br#".."#.
            if matches!(text.as_str(), "r" | "b" | "br")
                && matches!(chars.get(i), Some('"') | Some('#'))
            {
                let (s, consumed, newlines) = lex_raw_or_byte_string(&chars[i..], &text);
                push!(TokKind::Str, s, line);
                line += newlines;
                i += consumed;
                continue;
            }
            // Byte char literal b'x'.
            if text == "b" && chars.get(i) == Some(&'\'') {
                let (consumed, _) = lex_char_body(&chars[i..]);
                push!(TokKind::Char, String::new(), line);
                i += consumed;
                continue;
            }
            push!(TokKind::Ident, text, line);
            continue;
        }
        // Cooked string literal.
        if c == '"' {
            let start_line = line;
            let mut s = String::new();
            i += 1;
            while i < chars.len() && chars[i] != '"' {
                if chars[i] == '\\' && i + 1 < chars.len() {
                    s.push(chars[i]);
                    s.push(chars[i + 1]);
                    if chars[i + 1] == '\n' {
                        line += 1;
                    }
                    i += 2;
                    continue;
                }
                if chars[i] == '\n' {
                    line += 1;
                }
                s.push(chars[i]);
                i += 1;
            }
            i += 1; // closing quote
            push!(TokKind::Str, s, start_line);
            continue;
        }
        // Char literal or lifetime.
        if c == '\'' {
            let next = chars.get(i + 1).copied();
            let is_char = match next {
                Some('\\') => true,
                Some(n) if is_ident_start(n) => chars.get(i + 2) == Some(&'\''),
                Some(_) => true,
                None => false,
            };
            if is_char {
                let (consumed, _) = lex_char_body(&chars[i..]);
                push!(TokKind::Char, String::new(), line);
                i += consumed;
            } else {
                let start = i + 1;
                i += 1;
                while i < chars.len() && is_ident_continue(chars[i]) {
                    i += 1;
                }
                let text: String = chars[start..i].iter().collect();
                push!(TokKind::Lifetime, text, line);
            }
            continue;
        }
        // Number.
        if c.is_ascii_digit() {
            let start = i;
            while i < chars.len()
                && (is_ident_continue(chars[i])
                    || (chars[i] == '.'
                        && chars.get(i + 1).is_some_and(|d| d.is_ascii_digit())
                        && chars.get(i.wrapping_sub(1)) != Some(&'.')))
            {
                i += 1;
            }
            let text: String = chars[start..i].iter().collect();
            push!(TokKind::Number, text, line);
            continue;
        }
        // Punctuation, longest match first.
        let take = |n: usize| -> String { chars[i..(i + n).min(chars.len())].iter().collect() };
        let three = take(3);
        if PUNCT3.contains(&three.as_str()) {
            push!(TokKind::Punct, three, line);
            i += 3;
            continue;
        }
        let two = take(2);
        if PUNCT2.contains(&two.as_str()) {
            push!(TokKind::Punct, two, line);
            i += 2;
            continue;
        }
        push!(TokKind::Punct, c.to_string(), line);
        i += 1;
    }
    out
}

/// Consume a char/byte-char literal starting at the opening quote.
/// Returns (chars consumed, newlines crossed — always 0 in valid code).
fn lex_char_body(chars: &[char]) -> (usize, u32) {
    let mut i = 1; // opening quote
    while i < chars.len() && chars[i] != '\'' {
        if chars[i] == '\\' {
            i += 1;
        }
        i += 1;
    }
    (i + 1, 0)
}

/// Consume a raw or byte string whose prefix ident (`r`, `b`, `br`) was
/// already read; `chars` starts at the `#` or `"`. Returns the contents,
/// chars consumed, and newlines crossed.
fn lex_raw_or_byte_string(chars: &[char], prefix: &str) -> (String, usize, u32) {
    let raw = prefix.contains('r');
    let mut i = 0usize;
    let mut hashes = 0usize;
    if raw {
        while chars.get(i) == Some(&'#') {
            hashes += 1;
            i += 1;
        }
    }
    if chars.get(i) != Some(&'"') {
        return (String::new(), i.max(1), 0);
    }
    i += 1;
    let mut s = String::new();
    let mut newlines = 0u32;
    while i < chars.len() {
        if !raw && chars[i] == '\\' && i + 1 < chars.len() {
            s.push(chars[i]);
            s.push(chars[i + 1]);
            i += 2;
            continue;
        }
        if chars[i] == '"' {
            let mut ok = true;
            for k in 0..hashes {
                if chars.get(i + 1 + k) != Some(&'#') {
                    ok = false;
                    break;
                }
            }
            if ok {
                i += 1 + hashes;
                return (s, i, newlines);
            }
        }
        if chars[i] == '\n' {
            newlines += 1;
        }
        s.push(chars[i]);
        i += 1;
    }
    (s, i, newlines)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_comments_and_lifetimes_do_not_leak_tokens() {
        let src = r##"
            // Instant::now() in a comment
            let s = "Instant::now() in a string";
            let r = r#"HashMap in raw"#;
            let c = '{';
            fn f<'a>(x: &'a str) {}
        "##;
        let lexed = lex(src);
        let idents: Vec<&str> = lexed
            .toks
            .iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text.as_str())
            .collect();
        assert!(!idents.contains(&"Instant"), "{idents:?}");
        assert!(!idents.contains(&"HashMap"), "{idents:?}");
        assert!(lexed.toks.iter().any(|t| t.kind == TokKind::Lifetime));
        // The string *contents* are preserved on Str tokens.
        assert!(lexed
            .toks
            .iter()
            .any(|t| t.kind == TokKind::Str && t.text.contains("Instant")));
    }

    #[test]
    fn allow_markers_are_extracted_with_reason() {
        let src = "// lint:allow(unchecked-index): length-guarded\nlet b = buf[i];\n";
        let lexed = lex(src);
        assert_eq!(lexed.allows.len(), 1);
        assert_eq!(lexed.allows[0].id, "unchecked-index");
        assert_eq!(lexed.allows[0].line, 1);
        assert_eq!(lexed.allows[0].reason, "length-guarded");
    }

    #[test]
    fn marker_without_reason_has_empty_reason() {
        let src = "// lint:allow(unchecked-index)\nx[i];\n";
        let lexed = lex(src);
        assert_eq!(lexed.allows.len(), 1);
        assert!(lexed.allows[0].reason.is_empty());
    }

    #[test]
    fn line_numbers_survive_multiline_strings() {
        let src = "let a = \"one\ntwo\nthree\";\nlet b = 1;\n";
        let lexed = lex(src);
        let b = lexed.toks.iter().find(|t| t.is_ident("b")).unwrap();
        assert_eq!(b.line, 4);
    }
}
