//! SQL tokenizer.
//!
//! Tokens borrow from the statement text and are handed out one at a time
//! ([`Lexer::next_token`]): scanning builds no `String` and no vector. An
//! identifier is the slice as written — the parser folds it to lowercase
//! (standard SQL unquoted-identifier behaviour) at the moment it enters the
//! AST, as it does a `"quoted"` one; a keyword is resolved here, once, to
//! its [`Kw`] tag. String literals use single quotes with `''` as the
//! escape for a quote.

use std::fmt;

use crate::error::{Error, Result};

macro_rules! keywords {
    ($($variant:ident $text:literal,)*) => {
        /// A word the grammar gives a meaning to. Where the grammar takes
        /// any name (`link.left`, a table called `index`), a keyword is the
        /// name [`Kw::as_str`] spells.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum Kw { $($variant,)* }

        impl Kw {
            const ALL: &'static [Kw] = &[$(Kw::$variant,)*];

            /// The keyword in lower case.
            pub const fn as_str(self) -> &'static str {
                match self { $(Kw::$variant => $text,)* }
            }
        }
    };
}

keywords! {
    All "all", And "and", As "as", Asc "asc", Between "between", By "by", Case "case",
    Cast "cast", Create "create", Delete "delete", Desc "desc", Distinct "distinct",
    Drop "drop", Else "else", End "end", Except "except", Exists "exists", False "false",
    From "from", Group "group", Having "having", In "in", Index "index", Inner "inner",
    Insert "insert", Intersect "intersect", Into "into", Is "is", Join "join", Left "left",
    Like "like", Limit "limit", Not "not", Null "null", On "on", Or "or", Order "order",
    Outer "outer", Recursive "recursive", Select "select", Set "set", Table "table",
    Then "then", True "true", Union "union", Update "update", Values "values", View "view",
    When "when", Where "where", With "with",
}

impl Kw {
    /// Where a word with this length, first two and last letters would sit
    /// in [`KW_SLOTS`]; the multipliers are chosen so that no two keywords
    /// share a slot (checked when `KW_SLOTS` is built).
    const fn slot(word: &[u8]) -> usize {
        const fn letter(b: u8) -> usize {
            (b | 0x20) as usize
        }
        let last = word[word.len() - 1];
        (word.len() * 18 + letter(word[0]) * 28 + letter(word[1]) * 37 + letter(last) * 61) % 128
    }

    /// The keyword `word` spells in any case, if it is one: one table probe
    /// and one comparison per word of the text.
    fn lookup(word: &str) -> Option<Kw> {
        if !(2..=9).contains(&word.len()) {
            return None;
        }
        KW_SLOTS[Kw::slot(word.as_bytes())].filter(|kw| word.eq_ignore_ascii_case(kw.as_str()))
    }

    /// Keywords that terminate an expression or cannot serve as implicit
    /// aliases.
    pub fn is_reserved(self) -> bool {
        !matches!(self, Kw::All | Kw::Outer)
    }
}

static KW_SLOTS: [Option<Kw>; 128] = {
    let mut slots = [None; 128];
    let mut i = 0;
    while i < Kw::ALL.len() {
        let slot = Kw::slot(Kw::ALL[i].as_str().as_bytes());
        assert!(slots[slot].is_none(), "two keywords share a slot");
        slots[slot] = Some(Kw::ALL[i]);
        i += 1;
    }
    slots
};

/// A lexical token, borrowing from the text it was scanned from.
#[derive(Clone, Copy, PartialEq)]
pub enum Token<'a> {
    /// Unquoted identifier, as written (not yet folded to lowercase).
    Ident(&'a str),
    /// Keyword, in whatever case it was written.
    Kw(Kw),
    /// `"Quoted"` identifier, case preserved.
    QuotedIdent(&'a str),
    /// Integer literal.
    Int(i64),
    /// `$n` of a template: the `n-1`-th bound value. Scanned only by
    /// `Lexer::template`; in a statement text `$` is no character of SQL.
    Param(usize),
    /// Floating-point literal.
    Float(f64),
    /// String literal: the text between the quotes, and whether it holds
    /// `''` escapes ([`Token::unescape`] resolves them).
    Str(&'a str, bool),
    // Punctuation and operators.
    LParen,
    RParen,
    Comma,
    Dot,
    Semicolon,
    Star,
    Plus,
    Minus,
    Slash,
    Percent,
    Eq,
    NotEq,
    Lt,
    LtEq,
    Gt,
    GtEq,
    /// `||` string concatenation.
    Concat,
}

impl Token<'_> {
    /// The value of a string literal scanned as `Str(raw, escaped)`.
    pub fn unescape(raw: &str, escaped: bool) -> String {
        if escaped {
            raw.replace("''", "'")
        } else {
            raw.to_string()
        }
    }
}

/// Prints what the parser will read: a keyword or an identifier as
/// `Ident("lower-cased")`, a literal with its escapes resolved. Parse
/// errors quote tokens in this form.
impl fmt::Debug for Token<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn tuple(f: &mut fmt::Formatter<'_>, name: &str, field: &dyn fmt::Debug) -> fmt::Result {
            f.debug_tuple(name).field(field).finish()
        }
        match *self {
            Token::Ident(s) => tuple(f, "Ident", &s.to_ascii_lowercase()),
            Token::Kw(kw) => tuple(f, "Ident", &kw.as_str()),
            Token::QuotedIdent(s) => tuple(f, "QuotedIdent", &s),
            Token::Int(n) => tuple(f, "Int", &n),
            Token::Param(i) => write!(f, "${}", i + 1),
            Token::Float(x) => tuple(f, "Float", &x),
            Token::Str(raw, escaped) => tuple(f, "Str", &Token::unescape(raw, escaped)),
            Token::LParen => f.write_str("LParen"),
            Token::RParen => f.write_str("RParen"),
            Token::Comma => f.write_str("Comma"),
            Token::Dot => f.write_str("Dot"),
            Token::Semicolon => f.write_str("Semicolon"),
            Token::Star => f.write_str("Star"),
            Token::Plus => f.write_str("Plus"),
            Token::Minus => f.write_str("Minus"),
            Token::Slash => f.write_str("Slash"),
            Token::Percent => f.write_str("Percent"),
            Token::Eq => f.write_str("Eq"),
            Token::NotEq => f.write_str("NotEq"),
            Token::Lt => f.write_str("Lt"),
            Token::LtEq => f.write_str("LtEq"),
            Token::Gt => f.write_str("Gt"),
            Token::GtEq => f.write_str("GtEq"),
            Token::Concat => f.write_str("Concat"),
        }
    }
}

/// A scan over one statement text.
#[derive(Debug, Clone, Copy)]
pub struct Lexer<'a> {
    input: &'a str,
    /// Byte offset of the next unread character.
    pos: usize,
    /// `$n` is a token ([`Lexer::template`]).
    params: bool,
}

impl<'a> Lexer<'a> {
    pub fn new(input: &'a str) -> Self {
        Lexer {
            input,
            pos: 0,
            params: false,
        }
    }

    /// A scan over a template's text, where `$n` is [`Token::Param`].
    pub(crate) fn template(input: &'a str) -> Self {
        Lexer {
            params: true,
            ..Lexer::new(input)
        }
    }

    /// Byte offset just past the last token handed out.
    #[cfg(test)]
    pub(crate) fn position(&self) -> usize {
        self.pos
    }

    /// The next token, `None` at the end of the text.
    #[inline]
    pub fn next_token(&mut self) -> Result<Option<Token<'a>>> {
        let bytes = self.input.as_bytes();
        let mut start = self.pos;
        loop {
            match bytes.get(start) {
                Some(b' ' | b'\t' | b'\r' | b'\n') => start += 1,
                // line comment
                Some(b'-') if bytes.get(start + 1) == Some(&b'-') => {
                    while start < bytes.len() && bytes[start] != b'\n' {
                        start += 1;
                    }
                }
                Some(_) => break,
                None => {
                    self.pos = start;
                    return Ok(None);
                }
            }
        }
        self.pos = start;
        // 0 past the end: no operator's second character.
        let second = bytes.get(start + 1).copied().unwrap_or(0);
        let (len, token) = match bytes[start] {
            b'(' => (1, Token::LParen),
            b')' => (1, Token::RParen),
            b',' => (1, Token::Comma),
            b'.' => (1, Token::Dot),
            b';' => (1, Token::Semicolon),
            b'*' => (1, Token::Star),
            b'+' => (1, Token::Plus),
            b'-' => (1, Token::Minus),
            b'/' => (1, Token::Slash),
            b'%' => (1, Token::Percent),
            b'=' => (1, Token::Eq),
            b'|' if second == b'|' => (2, Token::Concat),
            b'|' => return Err(Error::Lex("single '|' is not an operator".into())),
            b'<' if second == b'=' => (2, Token::LtEq),
            b'<' if second == b'>' => (2, Token::NotEq),
            b'<' => (1, Token::Lt),
            b'>' if second == b'=' => (2, Token::GtEq),
            b'>' => (1, Token::Gt),
            b'!' if second == b'=' => (2, Token::NotEq),
            b'!' => return Err(Error::Lex("'!' must be followed by '='".into())),
            b'\'' => return self.string(),
            b'"' => match self.input[start + 1..].find('"') {
                Some(len) => (len + 2, Token::QuotedIdent(&self.input[start + 1..][..len])),
                None => return Err(Error::Lex("unterminated quoted identifier".into())),
            },
            b'0'..=b'9' => return self.number(),
            b'$' if self.params && second.is_ascii_digit() => {
                let digits = bytes[start + 1..].iter().take_while(|b| b.is_ascii_digit());
                let text = &self.input[start..start + 1 + digits.count()];
                match text[1..]
                    .parse::<usize>()
                    .ok()
                    .and_then(|n| n.checked_sub(1))
                {
                    Some(i) => (text.len(), Token::Param(i)),
                    None => return Err(Error::Lex(format!("bad parameter '{text}'"))),
                }
            }
            b'a'..=b'z' | b'A'..=b'Z' | b'_' => {
                let mut end = start + 1;
                while end < bytes.len()
                    && (bytes[end].is_ascii_alphanumeric() || bytes[end] == b'_')
                {
                    end += 1;
                }
                let word = &self.input[start..end];
                let token = Kw::lookup(word).map_or(Token::Ident(word), Token::Kw);
                (end - start, token)
            }
            _ => {
                // `start` is where a token would begin, so a character does.
                let other = self.input[start..].chars().next().unwrap_or('\0');
                return Err(Error::Lex(format!("unexpected character '{other}'")));
            }
        };
        self.pos = start + len;
        Ok(Some(token))
    }

    /// A single-quoted string literal starting at the read position.
    fn string(&mut self) -> Result<Option<Token<'a>>> {
        let bytes = self.input.as_bytes();
        let from = self.pos + 1;
        let mut escaped = false;
        let mut i = from;
        // A quote byte is never part of a longer UTF-8 sequence.
        while let Some(quote) = bytes[i..].iter().position(|b| *b == b'\'') {
            i += quote;
            if bytes.get(i + 1) != Some(&b'\'') {
                self.pos = i + 1;
                return Ok(Some(Token::Str(&self.input[from..i], escaped)));
            }
            escaped = true;
            i += 2;
        }
        Err(Error::Lex("unterminated string literal".into()))
    }

    /// An integer or float literal starting at the read position.
    fn number(&mut self) -> Result<Option<Token<'a>>> {
        let bytes = self.input.as_bytes();
        let digits = |mut i: usize| {
            while i < bytes.len() && bytes[i].is_ascii_digit() {
                i += 1;
            }
            i
        };
        let start = self.pos;
        let mut i = digits(start);
        let mut is_float = false;
        if bytes.get(i) == Some(&b'.') && bytes.get(i + 1).is_some_and(u8::is_ascii_digit) {
            is_float = true;
            i = digits(i + 1);
        }
        if i < bytes.len() && (bytes[i] == b'e' || bytes[i] == b'E') {
            let mut j = i + 1;
            if j < bytes.len() && (bytes[j] == b'+' || bytes[j] == b'-') {
                j += 1;
            }
            if j < bytes.len() && bytes[j].is_ascii_digit() {
                is_float = true;
                i = digits(j);
            }
        }
        let text = &self.input[start..i];
        self.pos = i;
        if is_float {
            text.parse::<f64>()
                .map(|x| Some(Token::Float(x)))
                .map_err(|_| Error::Lex(format!("bad float literal '{text}'")))
        } else {
            text.parse::<i64>()
                .map(|n| Some(Token::Int(n)))
                .map_err(|_| Error::Lex(format!("integer literal '{text}' out of range")))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tokens(input: &str) -> Result<Vec<Token<'_>>> {
        let mut lexer = Lexer::new(input);
        let mut out = Vec::new();
        while let Some(token) = lexer.next_token()? {
            out.push(token);
        }
        Ok(out)
    }

    #[test]
    fn keywords_and_idents_lowercased() {
        let toks = tokens("SELECT Name FrOm Assy").unwrap();
        assert_eq!(
            toks,
            vec![
                Token::Kw(Kw::Select),
                Token::Ident("Name"),
                Token::Kw(Kw::From),
                Token::Ident("Assy"),
            ]
        );
        // ... and read lower-cased, as the owned tokens used to be.
        assert_eq!(
            format!("{toks:?}"),
            "[Ident(\"select\"), Ident(\"name\"), Ident(\"from\"), Ident(\"assy\")]"
        );
    }

    #[test]
    fn every_keyword_is_found_in_any_case_and_nothing_else_is() {
        for &kw in Kw::ALL {
            let upper = kw.as_str().to_ascii_uppercase();
            assert_eq!(Kw::lookup(kw.as_str()), Some(kw));
            assert_eq!(Kw::lookup(&upper), Some(kw));
            // Same length, first two and last letters — the same slot.
            let near = format!("{}_{}", &upper[..2], &upper[upper.len() - 1..]);
            assert_eq!(Kw::lookup(&near), None);
        }
        for word in ["a", "right", "type", "dec", "selects", "recursively", "_"] {
            assert_eq!(Kw::lookup(word), None, "{word}");
        }
    }

    #[test]
    fn debug_prints_the_folded_spelling() {
        let toks = tokens("FrOm Frm \"Frm\" 'it''s' 7 1.5 <=").unwrap();
        assert_eq!(
            format!("{toks:?}"),
            "[Ident(\"from\"), Ident(\"frm\"), QuotedIdent(\"Frm\"), Str(\"it's\"), \
             Int(7), Float(1.5), LtEq]"
        );
    }

    #[test]
    fn operators() {
        let toks = tokens("a <> b != c <= d >= e < f > g = h || i").unwrap();
        let ops: Vec<Token> = toks
            .into_iter()
            .filter(|t| !matches!(t, Token::Ident(_)))
            .collect();
        assert_eq!(
            ops,
            vec![
                Token::NotEq,
                Token::NotEq,
                Token::LtEq,
                Token::GtEq,
                Token::Lt,
                Token::Gt,
                Token::Eq,
                Token::Concat
            ]
        );
    }

    #[test]
    fn string_literal_with_escape() {
        let toks = tokens("'it''s a part' 'plain' ''").unwrap();
        assert_eq!(
            toks,
            vec![
                Token::Str("it''s a part", true),
                Token::Str("plain", false),
                Token::Str("", false)
            ]
        );
        assert_eq!(Token::unescape("it''s a part", true), "it's a part");
    }

    #[test]
    fn unterminated_string_errors() {
        assert!(matches!(tokens("'oops"), Err(Error::Lex(_))));
        assert!(matches!(tokens("'oops''"), Err(Error::Lex(_))));
    }

    #[test]
    fn quoted_identifier_preserves_case() {
        let toks = tokens("SELECT \"EFF_FROM\" FROM t").unwrap();
        assert!(toks.contains(&Token::QuotedIdent("EFF_FROM")));
    }

    #[test]
    fn numbers_int_and_float() {
        let toks = tokens("42 3.5 1e3 2.5e-2").unwrap();
        assert_eq!(
            toks,
            vec![
                Token::Int(42),
                Token::Float(3.5),
                Token::Float(1000.0),
                Token::Float(0.025)
            ]
        );
    }

    #[test]
    fn dot_separates_qualified_names() {
        let toks = tokens("assy.obid").unwrap();
        assert_eq!(
            toks,
            vec![Token::Ident("assy"), Token::Dot, Token::Ident("obid")]
        );
    }

    #[test]
    fn line_comments_skipped() {
        let toks = tokens("select -- everything\n1").unwrap();
        assert_eq!(toks, vec![Token::Kw(Kw::Select), Token::Int(1)]);
    }

    #[test]
    fn bad_char_reports_lex_error() {
        assert!(matches!(tokens("select #"), Err(Error::Lex(_))));
        assert!(matches!(tokens("a ! b"), Err(Error::Lex(_))));
        assert!(matches!(tokens("a | b"), Err(Error::Lex(_))));
    }

    #[test]
    fn non_ascii_character_outside_a_literal_is_reported_as_itself() {
        for (text, c) in [("SELECT é", 'é'), ("SELECT 日本", '日'), ("a 🦀", '🦀')] {
            assert_eq!(
                tokens(text),
                Err(Error::Lex(format!("unexpected character '{c}'")))
            );
        }
    }

    #[test]
    fn only_a_template_scans_parameters() {
        let mut template = Lexer::template("a = $12, $0");
        let mut scanned = Vec::new();
        while let Ok(Some(token)) = template.next_token() {
            scanned.push(token);
        }
        assert_eq!(
            scanned,
            [Token::Ident("a"), Token::Eq, Token::Param(11), Token::Comma]
        );
        assert_eq!(
            template.next_token(),
            Err(Error::Lex("bad parameter '$0'".into()))
        );
        assert_eq!(
            tokens("a = $12"),
            Err(Error::Lex("unexpected character '$'".into()))
        );
    }

    #[test]
    fn unicode_in_strings() {
        let toks = tokens("'Müller' 'Müller''s'").unwrap();
        assert_eq!(
            toks,
            vec![Token::Str("Müller", false), Token::Str("Müller''s", true)]
        );
    }
}
