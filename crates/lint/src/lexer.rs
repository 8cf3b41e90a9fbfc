//! A minimal Rust lexer for static analysis.
//!
//! Produces a stream of identifier/punctuation tokens with line numbers.
//! String, byte-string, raw-string and char literals collapse into a
//! single [`TokKind::Literal`] token (their contents can never trigger a
//! rule), block comments vanish entirely, and line comments are captured
//! verbatim so pragma directives (`// doe-lint: allow(...)`) survive to
//! the suppression pass.
//!
//! The lexer is deliberately lossy — it does not distinguish keywords
//! from identifiers, nor parse expressions. Rules are written as token
//! window patterns (see [`crate::rules`]), which is exactly as much
//! structure as the determinism contract needs.

/// What a token is.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TokKind {
    /// An identifier or keyword (`HashMap`, `as`, `unwrap`, ...).
    Ident(String),
    /// A single punctuation character (`.`, `!`, `(`, ...).
    Punct(char),
    /// Any literal: string, raw string, byte string, char or number.
    Literal,
}

/// A token plus the 1-based line it starts on.
#[derive(Debug, Clone)]
pub struct Tok {
    /// 1-based source line.
    pub line: u32,
    /// Token payload.
    pub kind: TokKind,
}

impl Tok {
    /// The identifier text, if this token is one.
    pub fn ident(&self) -> Option<&str> {
        match &self.kind {
            TokKind::Ident(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// True if this token is the punctuation character `c`.
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokKind::Punct(c)
    }
}

/// A `//` comment (includes `///` and `//!` doc comments), text after
/// the slashes, untrimmed.
#[derive(Debug, Clone)]
pub struct LineComment {
    /// 1-based source line.
    pub line: u32,
    /// Comment body (everything after the leading `//`).
    pub text: String,
}

/// Lexer output: code tokens plus captured line comments.
#[derive(Debug, Default)]
pub struct Lexed {
    /// Code tokens in source order.
    pub toks: Vec<Tok>,
    /// Line comments in source order.
    pub comments: Vec<LineComment>,
}

/// Tokenize `src`. Never fails: unrecognized bytes lex as punctuation.
pub fn lex(src: &str) -> Lexed {
    let cs: Vec<char> = src.chars().collect();
    let n = cs.len();
    let mut out = Lexed::default();
    let mut i = 0usize;
    let mut line = 1u32;

    while i < n {
        let c = cs[i];
        match c {
            '\n' => {
                line += 1;
                i += 1;
            }
            c if c.is_whitespace() => i += 1,
            '/' if peek(&cs, i + 1) == Some('/') => {
                let start = i + 2;
                let mut j = start;
                while j < n && cs[j] != '\n' {
                    j += 1;
                }
                out.comments.push(LineComment {
                    line,
                    text: cs[start..j].iter().collect(),
                });
                i = j;
            }
            '/' if peek(&cs, i + 1) == Some('*') => {
                // Nested block comments, per the Rust grammar.
                let mut depth = 1u32;
                i += 2;
                while i < n && depth > 0 {
                    if cs[i] == '/' && peek(&cs, i + 1) == Some('*') {
                        depth += 1;
                        i += 2;
                    } else if cs[i] == '*' && peek(&cs, i + 1) == Some('/') {
                        depth -= 1;
                        i += 2;
                    } else {
                        if cs[i] == '\n' {
                            line += 1;
                        }
                        i += 1;
                    }
                }
            }
            '"' => {
                out.toks.push(Tok {
                    line,
                    kind: TokKind::Literal,
                });
                i = skip_quoted(&cs, i, &mut line);
            }
            '\'' => i = lex_quote(&cs, i, &mut line, &mut out),
            c if c == '_' || c.is_alphabetic() => {
                if let Some(end) = raw_string_end(&cs, i, &mut line) {
                    out.toks.push(Tok {
                        line,
                        kind: TokKind::Literal,
                    });
                    i = end;
                } else if c == 'r'
                    && peek(&cs, i + 1) == Some('#')
                    && peek(&cs, i + 2).is_some_and(|x| x == '_' || x.is_alphabetic())
                {
                    // Raw identifier `r#type`: lexes as the bare identifier so
                    // item extraction sees `fn r#try` as a fn named `try`.
                    let start = i + 2;
                    i = start;
                    while i < n && (cs[i] == '_' || cs[i].is_alphanumeric()) {
                        i += 1;
                    }
                    out.toks.push(Tok {
                        line,
                        kind: TokKind::Ident(cs[start..i].iter().collect()),
                    });
                } else {
                    let start = i;
                    while i < n && (cs[i] == '_' || cs[i].is_alphanumeric()) {
                        i += 1;
                    }
                    out.toks.push(Tok {
                        line,
                        kind: TokKind::Ident(cs[start..i].iter().collect()),
                    });
                }
            }
            c if c.is_ascii_digit() => {
                out.toks.push(Tok {
                    line,
                    kind: TokKind::Literal,
                });
                i += 1;
                while i < n {
                    let d = cs[i];
                    if d == '_' || d.is_alphanumeric() {
                        i += 1;
                    } else if d == '.' && peek(&cs, i + 1).is_some_and(|x| x.is_ascii_digit()) {
                        // `1.5` continues the literal; `0..n` does not.
                        i += 1;
                    } else {
                        break;
                    }
                }
            }
            other => {
                out.toks.push(Tok {
                    line,
                    kind: TokKind::Punct(other),
                });
                i += 1;
            }
        }
    }
    out
}

fn peek(cs: &[char], i: usize) -> Option<char> {
    cs.get(i).copied()
}

/// Skip a `"..."` literal starting at the opening quote; returns the
/// index just past the closing quote, counting embedded newlines.
fn skip_quoted(cs: &[char], mut i: usize, line: &mut u32) -> usize {
    let n = cs.len();
    i += 1; // opening quote
    while i < n {
        match cs[i] {
            '\\' => {
                // A `\` line continuation still ends a source line; losing
                // the count here desyncs every diagnostic below it.
                if peek(cs, i + 1) == Some('\n') {
                    *line += 1;
                }
                i += 2;
            }
            '"' => return i + 1,
            '\n' => {
                *line += 1;
                i += 1;
            }
            _ => i += 1,
        }
    }
    i
}

/// Disambiguate `'a'` / `'\n'` (char literals) from `'static` / `'_`
/// (lifetimes). Lifetimes produce no token; char literals collapse to
/// [`TokKind::Literal`].
fn lex_quote(cs: &[char], i: usize, line: &mut u32, out: &mut Lexed) -> usize {
    let n = cs.len();
    match peek(cs, i + 1) {
        Some('\\') => {
            // Escaped char literal: `'\\'`, `'\''`, `'\u{7f}'`. The
            // backslash escapes exactly the char at i+2, so the scan for
            // the closing quote starts at i+3 (escape payloads like
            // `u{..}` contain no quotes).
            out.toks.push(Tok {
                line: *line,
                kind: TokKind::Literal,
            });
            let mut j = i + 3;
            while j < n && cs[j] != '\'' {
                j += 1;
            }
            (j + 1).min(n)
        }
        Some(c) if peek(cs, i + 2) == Some('\'') && c != '\'' => {
            // Any single-char literal: 'a', '{', '.', ...
            out.toks.push(Tok {
                line: *line,
                kind: TokKind::Literal,
            });
            i + 3
        }
        Some(c) if c == '_' || c.is_alphanumeric() => {
            // Lifetime: consume the identifier, no closing quote.
            let mut j = i + 1;
            while j < n && (cs[j] == '_' || cs[j].is_alphanumeric()) {
                j += 1;
            }
            j
        }
        _ => {
            out.toks.push(Tok {
                line: *line,
                kind: TokKind::Punct('\''),
            });
            i + 1
        }
    }
}

/// If position `i` begins a raw / byte / byte-raw string (`r"`, `r#"`,
/// `br"`, `b"`, ...), return the index just past its end.
fn raw_string_end(cs: &[char], i: usize, line: &mut u32) -> Option<usize> {
    let n = cs.len();
    let mut j = i;
    match cs[j] {
        'b' => {
            j += 1;
            if peek(cs, j) == Some('r') {
                j += 1;
            } else if peek(cs, j) == Some('"') {
                // b"..." — ordinary escapes.
                return Some(skip_quoted(cs, j, line));
            } else if peek(cs, j) == Some('\'') {
                // b'x' byte literal.
                let mut k = j + 1;
                while k < n && cs[k] != '\'' {
                    k += if cs[k] == '\\' { 2 } else { 1 };
                }
                return Some((k + 1).min(n));
            } else {
                return None;
            }
        }
        'r' => j += 1,
        _ => return None,
    }
    // Here: after `r` or `br`. Count hashes, then require a quote.
    let mut hashes = 0usize;
    while peek(cs, j) == Some('#') {
        hashes += 1;
        j += 1;
    }
    if peek(cs, j) != Some('"') {
        return None;
    }
    j += 1;
    // Scan for `"` followed by `hashes` hash marks. No escapes in raw strings.
    while j < n {
        if cs[j] == '\n' {
            *line += 1;
            j += 1;
            continue;
        }
        if cs[j] == '"' {
            let mut k = j + 1;
            let mut seen = 0usize;
            while seen < hashes && peek(cs, k) == Some('#') {
                seen += 1;
                k += 1;
            }
            if seen == hashes {
                return Some(k);
            }
        }
        j += 1;
    }
    Some(n)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .toks
            .iter()
            .filter_map(|t| t.ident().map(str::to_string))
            .collect()
    }

    #[test]
    fn strings_and_comments_are_stripped() {
        let src = r##"
            // HashMap in a comment
            /* Instant::now() in a block /* nested */ comment */
            let s = "thread_rng() in a string";
            let r = r#"SystemTime in a raw string"#;
            let b = b"println! bytes";
            let c = 'x';
            real_ident();
        "##;
        let ids = idents(src);
        assert!(ids.contains(&"real_ident".to_string()));
        for banned in ["HashMap", "Instant", "thread_rng", "SystemTime", "println"] {
            assert!(!ids.contains(&banned.to_string()), "{banned} leaked");
        }
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let src = "fn f<'a>(x: &'a str) -> &'a str { x }";
        let ids = idents(src);
        assert!(ids.contains(&"str".to_string()));
        // Lifetime names vanish — they can never trigger a rule, and
        // treating `'a` as an unterminated char literal would eat code.
        assert!(!ids.contains(&"a".to_string()));
    }

    #[test]
    fn line_numbers_track_multiline_constructs() {
        let src = "let a = \"line\nbreak\";\nmarker();\n";
        let lexed = lex(src);
        let marker = lexed
            .toks
            .iter()
            .find(|t| t.ident() == Some("marker"))
            .unwrap();
        assert_eq!(marker.line, 3);
    }

    #[test]
    fn comments_are_captured_with_lines() {
        let src = "code();\n// doe-lint: allow(D001) — why\nmore();\n";
        let lexed = lex(src);
        assert_eq!(lexed.comments.len(), 1);
        assert_eq!(lexed.comments[0].line, 2);
        assert!(lexed.comments[0].text.contains("doe-lint"));
    }

    #[test]
    fn escaped_char_literals_do_not_swallow_code() {
        // Regression: `'\\'` once skipped past its closing quote and ate
        // everything to the next apostrophe.
        let src = "let a = '\\\\'; let b = '\\''; after_literals();";
        let ids = idents(src);
        assert!(ids.contains(&"after_literals".to_string()), "{ids:?}");
    }

    #[test]
    fn punctuation_char_literals_keep_brace_balance() {
        let src = "match c { '{' => 1, '}' => 2, _ => 3 }";
        let lexed = lex(src);
        let open = lexed.toks.iter().filter(|t| t.is_punct('{')).count();
        let close = lexed.toks.iter().filter(|t| t.is_punct('}')).count();
        assert_eq!(open, 1);
        assert_eq!(close, 1);
    }

    #[test]
    fn range_does_not_swallow_dots() {
        let src = "for i in 0..n { f(i); }";
        let lexed = lex(src);
        let dots = lexed.toks.iter().filter(|t| t.is_punct('.')).count();
        assert_eq!(dots, 2);
    }

    #[test]
    fn raw_identifiers_lex_as_bare_idents() {
        // Regression: `r#try` once lexed as `r`, `#`, `try` — the stray `#`
        // desynced attribute detection and the call-expression extractor.
        let src = "fn r#try() { r#match(); }";
        let ids = idents(src);
        assert_eq!(ids, vec!["fn", "try", "match"]);
        assert!(!lex(src).toks.iter().any(|t| t.is_punct('#')));
    }

    #[test]
    fn hashed_raw_strings_hide_comment_lookalikes() {
        // Regression: a `//` or `"#` inside an `r##"…"##` body must not
        // terminate the literal early or spawn a phantom comment.
        let src = "let s = r##\"no // comment, stray \"# quote\"##; after_raw();\n// real\n";
        let lexed = lex(src);
        let ids: Vec<&str> = lexed.toks.iter().filter_map(|t| t.ident()).collect();
        assert!(ids.contains(&"after_raw"), "{ids:?}");
        assert!(!ids.contains(&"comment"));
        assert_eq!(lexed.comments.len(), 1);
        assert!(lexed.comments[0].text.contains("real"));
    }

    #[test]
    fn nested_block_comment_with_quotes_does_not_desync() {
        // Regression: an apostrophe or quote inside `/* /* */ */` once left
        // the lexer inside a phantom string for the rest of the file.
        let src = "/* outer \" /* inner ' */ still \" out */ survivor();";
        let ids = idents(src);
        assert_eq!(ids, vec!["survivor"]);
    }

    #[test]
    fn escaped_newline_in_string_keeps_line_count() {
        // Regression: `"a \` + newline continuation swallowed the newline
        // without counting it, shifting every later diagnostic up a line.
        let src = "let s = \"a \\\nb\";\nmarker();\n";
        let lexed = lex(src);
        let marker = lexed
            .toks
            .iter()
            .find(|t| t.ident() == Some("marker"))
            .unwrap();
        assert_eq!(marker.line, 3);
    }

    #[test]
    fn lifetimes_in_generic_positions_do_not_eat_tokens() {
        let src = "impl<'a, T: Iterator<Item = &'a str> + 'a> Wrap<'a, T> { fn g(&'a self) {} }";
        let ids = idents(src);
        assert!(ids.contains(&"Wrap".to_string()));
        assert!(ids.contains(&"g".to_string()));
        // `'a` never lexes as a char literal or identifier.
        assert!(!ids.contains(&"a".to_string()));
        let lexed = lex(src);
        assert_eq!(lexed.toks.iter().filter(|t| t.is_punct('{')).count(), 2);
        assert_eq!(lexed.toks.iter().filter(|t| t.is_punct('}')).count(), 2);
    }
}
