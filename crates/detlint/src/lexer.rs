//! A minimal Rust lexer — just enough structure for determinism lints.
//!
//! The pass needs to see identifiers, punctuation and comments with
//! accurate line numbers, while *never* mistaking the contents of a
//! string literal or a comment for code (rule names, diagnostics and
//! documentation all mention the very constructs the rules forbid).
//! A full parse is not required: every rule matches short token
//! sequences, so a lossy token stream with correct string/comment
//! handling is sufficient and keeps the linter dependency-free.

/// What a token is, to the granularity the rules care about.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// An identifier or keyword (`HashMap`, `fn`, `partial_cmp`, ...).
    Ident,
    /// A single punctuation character (`:`, `!`, `(`, `.`, ...).
    Punct,
    /// A string, char, byte or numeric literal (contents opaque).
    Literal,
    /// A lifetime (`'a`) — kept distinct so `'a` is never a char.
    Lifetime,
}

/// One token with its 1-based source line.
#[derive(Debug, Clone)]
pub struct Token {
    /// Classification of the token.
    pub kind: TokKind,
    /// The token's text (for literals, the raw source slice).
    pub text: String,
    /// 1-based line the token starts on.
    pub line: u32,
}

/// A comment with its 1-based source line (text excludes the `//` /
/// `/*` markers).
#[derive(Debug, Clone)]
pub struct Comment {
    /// 1-based line the comment starts on.
    pub line: u32,
    /// Comment body, marker characters stripped.
    pub text: String,
}

/// Token stream plus the comments that were stripped from it.
#[derive(Debug, Clone, Default)]
pub struct LexedFile {
    /// All non-comment tokens in source order.
    pub tokens: Vec<Token>,
    /// All comments in source order (doc comments included).
    pub comments: Vec<Comment>,
}

impl LexedFile {
    /// True when the token at `idx` is an identifier equal to `s`.
    pub fn ident_at(&self, idx: usize, s: &str) -> bool {
        self.tokens
            .get(idx)
            .is_some_and(|t| t.kind == TokKind::Ident && t.text == s)
    }

    /// True when the token at `idx` is punctuation equal to `s`.
    pub fn punct_at(&self, idx: usize, s: &str) -> bool {
        self.tokens
            .get(idx)
            .is_some_and(|t| t.kind == TokKind::Punct && t.text == s)
    }

    /// True when tokens starting at `idx` spell `path` segments joined
    /// by `::` (e.g. `["SystemTime", "now"]` matches `SystemTime::now`).
    pub fn path_at(&self, idx: usize, path: &[&str]) -> bool {
        let mut i = idx;
        for (k, seg) in path.iter().enumerate() {
            if k > 0 {
                if !(self.punct_at(i, ":") && self.punct_at(i + 1, ":")) {
                    return false;
                }
                i += 2;
            }
            if !self.ident_at(i, seg) {
                return false;
            }
            i += 1;
        }
        true
    }
}

/// Lexes `src` into tokens and comments.
///
/// Handles the lexical features that matter for not misreading code:
/// line comments, nested block comments, string / raw-string / byte /
/// char literals with escapes, lifetimes vs char literals, and numeric
/// literals. Anything unrecognized becomes single-character
/// punctuation, which is harmless for sequence matching.
pub fn lex(src: &str) -> LexedFile {
    let bytes = src.as_bytes();
    let mut out = LexedFile::default();
    let mut i = 0usize;
    let mut line = 1u32;
    while i < bytes.len() {
        // Decode the real character: the first *byte* of a multibyte
        // sequence cast to `char` misclassifies (e.g. the lead byte of
        // `«` looks alphabetic), which once produced a zero-length
        // "identifier" and a lexer that never advanced.
        let c = match src[i..].chars().next() {
            Some(c) => c,
            None => break,
        };
        match c {
            '\n' => {
                line += 1;
                i += 1;
            }
            c if c.is_whitespace() => i += c.len_utf8(),
            '/' if bytes.get(i + 1) == Some(&b'/') => {
                let start = i + 2;
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
                out.comments.push(Comment {
                    line,
                    text: src[start..i].trim_start_matches(['/', '!']).to_string(),
                });
            }
            '/' if bytes.get(i + 1) == Some(&b'*') => {
                let start_line = line;
                let start = i + 2;
                let mut depth = 1u32;
                i += 2;
                while i < bytes.len() && depth > 0 {
                    if bytes[i] == b'/' && bytes.get(i + 1) == Some(&b'*') {
                        depth += 1;
                        i += 2;
                    } else if bytes[i] == b'*' && bytes.get(i + 1) == Some(&b'/') {
                        depth -= 1;
                        i += 2;
                    } else {
                        if bytes[i] == b'\n' {
                            line += 1;
                        }
                        i += 1;
                    }
                }
                // An unterminated comment runs to EOF: `i - 2` would
                // then point two bytes back — possibly mid-character.
                let end = if depth == 0 {
                    i.saturating_sub(2).max(start)
                } else {
                    bytes.len()
                };
                out.comments.push(Comment {
                    line: start_line,
                    text: src[start..end].to_string(),
                });
            }
            '"' => {
                let (len, newlines) = skip_string(&src[i..]);
                out.tokens.push(Token {
                    kind: TokKind::Literal,
                    text: src[i..i + len].to_string(),
                    line,
                });
                line += newlines;
                i += len;
            }
            'r' | 'b' | 'c' if prefixed_literal(&src[i..]).is_some() => {
                let (skip, raw) = prefixed_literal(&src[i..]).unwrap();
                let (len, newlines) = if raw {
                    // `skip` points past the prefix letters; the raw
                    // scanner wants to see the `#`s and quote itself.
                    skip_raw_string(&src[i + skip..])
                } else {
                    skip_string(&src[i + skip..])
                };
                out.tokens.push(Token {
                    kind: TokKind::Literal,
                    text: src[i..i + skip + len].to_string(),
                    line,
                });
                line += newlines;
                i += skip + len;
            }
            '\'' => {
                // Lifetime or char literal. `'a` followed by anything
                // but a closing quote is a lifetime; otherwise a char.
                let rest = &src[i + 1..];
                let mut chars = rest.chars();
                let first = chars.next().unwrap_or('\0');
                let second = chars.next().unwrap_or('\0');
                if (first.is_alphabetic() || first == '_') && second != '\'' {
                    let mut len = 1;
                    for ch in rest.chars() {
                        if ch.is_alphanumeric() || ch == '_' {
                            len += ch.len_utf8();
                        } else {
                            break;
                        }
                    }
                    out.tokens.push(Token {
                        kind: TokKind::Lifetime,
                        text: src[i..i + len].to_string(),
                        line,
                    });
                    i += len;
                } else {
                    let len = skip_char_literal(&src[i..]);
                    out.tokens.push(Token {
                        kind: TokKind::Literal,
                        text: src[i..i + len].to_string(),
                        line,
                    });
                    i += len;
                }
            }
            c if c.is_alphabetic() || c == '_' => {
                let mut len = 0;
                for ch in src[i..].chars() {
                    if ch.is_alphanumeric() || ch == '_' {
                        len += ch.len_utf8();
                    } else {
                        break;
                    }
                }
                out.tokens.push(Token {
                    kind: TokKind::Ident,
                    text: src[i..i + len].to_string(),
                    line,
                });
                i += len;
            }
            c if c.is_ascii_digit() => {
                // Numeric literal: digits / `_` / suffix letters, a
                // fractional part only when the `.` is followed by a
                // digit (so `0..n` stays a range and `x.1.partial_cmp`
                // keeps its method call), and a signed exponent.
                let b = &src.as_bytes()[i..];
                let mut len = 0usize;
                let run = |b: &[u8], mut k: usize| {
                    while k < b.len()
                        && (b[k].is_ascii_alphanumeric()
                            || b[k] == b'_'
                            || ((b[k] == b'+' || b[k] == b'-')
                                && k > 0
                                && (b[k - 1] == b'e' || b[k - 1] == b'E')))
                    {
                        k += 1;
                    }
                    k
                };
                len = run(b, len);
                if b.get(len) == Some(&b'.') && b.get(len + 1).is_some_and(|c| c.is_ascii_digit()) {
                    len = run(b, len + 1);
                }
                out.tokens.push(Token {
                    kind: TokKind::Literal,
                    text: src[i..i + len].to_string(),
                    line,
                });
                i += len;
            }
            _ => {
                out.tokens.push(Token {
                    kind: TokKind::Punct,
                    text: c.to_string(),
                    line,
                });
                i += c.len_utf8();
            }
        }
    }
    out
}

/// Recognizes a string-literal prefix at the start of `s`: `b"`, `c"`,
/// `r"`, `br"`, `rb"`, `cr"`, or a raw form with `#`s (`r#"`, `br##"`,
/// ...). Returns `(prefix letter count, is_raw)` — for raw literals the
/// returned length covers only the letters, so the raw scanner still
/// sees the `#`s and the opening quote. `None` means `s` starts with an
/// ordinary identifier (`raw_data`, `break`, ...).
fn prefixed_literal(s: &str) -> Option<(usize, bool)> {
    let bytes = s.as_bytes();
    let mut letters = 0usize;
    let mut raw = false;
    while letters < 2 {
        match bytes.get(letters) {
            Some(b'r') if !raw => raw = true,
            Some(b'b') | Some(b'c') if letters == 0 => {}
            _ => break,
        }
        letters += 1;
    }
    if letters == 0 {
        return None;
    }
    let mut j = letters;
    if raw {
        while bytes.get(j) == Some(&b'#') {
            j += 1;
        }
    }
    if bytes.get(j) == Some(&b'"') {
        Some((letters, raw))
    } else {
        None
    }
}

/// Length in bytes of the `"..."` literal at the start of `s`, plus
/// the number of newlines inside it.
fn skip_string(s: &str) -> (usize, u32) {
    let mut len = 1; // opening quote
    let mut newlines = 0;
    let mut escaped = false;
    for ch in s[1..].chars() {
        len += ch.len_utf8();
        if escaped {
            escaped = false;
            continue;
        }
        match ch {
            '\\' => escaped = true,
            '\n' => newlines += 1,
            '"' => return (len, newlines),
            _ => {}
        }
    }
    (len, newlines)
}

/// Length in bytes of the raw literal `#*"..."#*` at the start of `s`
/// (after any `r`/`b`/`c` prefix has been consumed by the caller when
/// `s` starts with `#` or `"`), plus newlines inside it.
fn skip_raw_string(s: &str) -> (usize, u32) {
    let hashes = s.chars().take_while(|&c| c == '#').count();
    let mut closer = String::from("\"");
    closer.push_str(&"#".repeat(hashes));
    let body_start = hashes + 1; // hashes + opening quote
    if let Some(pos) = s[body_start..].find(&closer) {
        let end = body_start + pos + closer.len();
        let newlines = s[..end].matches('\n').count() as u32;
        (end, newlines)
    } else {
        (s.len(), s.matches('\n').count() as u32)
    }
}

/// Length in bytes of the char literal `'...'` at the start of `s`.
fn skip_char_literal(s: &str) -> usize {
    let mut len = 1;
    let mut escaped = false;
    for ch in s[1..].chars() {
        len += ch.len_utf8();
        if escaped {
            escaped = false;
            continue;
        }
        match ch {
            '\\' => escaped = true,
            '\'' => return len,
            _ => {}
        }
    }
    len
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .into_iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text)
            .collect()
    }

    #[test]
    fn strings_and_comments_hide_their_contents() {
        let src = r##"
            // HashMap in a comment
            /* thread_rng in /* a nested */ block */
            let x = "HashMap::new()";
            let y = r#"Instant::now()"#;
            let z = 'h';
            real_ident();
        "##;
        let ids = idents(src);
        assert!(ids.contains(&"real_ident".to_string()));
        assert!(!ids.iter().any(|s| s == "HashMap"));
        assert!(!ids.iter().any(|s| s == "thread_rng"));
        assert!(!ids.iter().any(|s| s == "Instant"));
    }

    #[test]
    fn comments_are_collected_with_lines() {
        let lexed = lex("let a = 1;\n// detlint: allow(dl003) why\nlet b = 2;\n");
        assert_eq!(lexed.comments.len(), 1);
        assert_eq!(lexed.comments[0].line, 2);
        assert!(lexed.comments[0].text.contains("detlint: allow"));
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let lexed = lex("fn f<'a>(x: &'a str) -> &'a str { x }");
        let lifetimes = lexed
            .tokens
            .iter()
            .filter(|t| t.kind == TokKind::Lifetime)
            .count();
        assert_eq!(lifetimes, 3);
    }

    #[test]
    fn path_matching_sees_through_whitespace() {
        let lexed = lex("let t = SystemTime :: now ();");
        let idx = lexed
            .tokens
            .iter()
            .position(|t| t.text == "SystemTime")
            .unwrap();
        assert!(lexed.path_at(idx, &["SystemTime", "now"]));
        assert!(!lexed.path_at(idx, &["SystemTime", "later"]));
    }

    #[test]
    fn line_numbers_survive_multiline_strings() {
        let src = "let s = \"line\nline\nline\";\nafter();";
        let lexed = lex(src);
        let after = lexed.tokens.iter().find(|t| t.text == "after").unwrap();
        assert_eq!(after.line, 4);
    }

    #[test]
    fn numeric_ranges_do_not_swallow_dots() {
        let lexed = lex("for i in 0..n {}");
        assert!(lexed.tokens.iter().any(|t| t.text == "n"));
        let dots = lexed.tokens.iter().filter(|t| t.text == ".").count();
        assert_eq!(dots, 2);
    }

    #[test]
    fn multibyte_punctuation_makes_progress() {
        // The lead byte of `«` (0xC2) cast to char is alphabetic; the
        // old byte-at-a-time decode produced an empty identifier here
        // and looped forever. Guillemets, em-dashes and NBSP must all
        // lex to something and terminate.
        let lexed = lex("let a = «b» — c;\u{a0}done();");
        assert!(lexed.tokens.iter().any(|t| t.text == "done"));
        assert!(lexed.tokens.iter().all(|t| !t.text.is_empty()));
    }

    #[test]
    fn unterminated_nested_comment_does_not_panic() {
        // Runs to EOF with a multibyte char in the tail: the comment
        // end must clamp to the buffer, not slice two bytes back.
        let lexed = lex("fn f() {}\n/* outer /* inner */ still open €");
        assert_eq!(lexed.comments.len(), 1);
        assert!(lexed.comments[0].text.contains("still open"));
        assert!(lexed.tokens.iter().any(|t| t.text == "f"));
    }

    #[test]
    fn byte_and_c_string_literals_hide_contents() {
        let src = r##"
            let a = b"thread_rng bytes";
            let b = br#"HashMap raw bytes"#;
            let c = c"Instant::now c string";
            let d = rb"SystemTime reversed prefix";
            after();
        "##;
        let ids = idents(src);
        assert!(ids.contains(&"after".to_string()));
        for banned in ["thread_rng", "HashMap", "Instant", "SystemTime"] {
            assert!(!ids.iter().any(|s| s == banned), "{banned} leaked");
        }
    }

    #[test]
    fn raw_identifiers_are_not_raw_strings() {
        let lexed = lex("let r#match = r#struct + rng;");
        assert!(lexed.tokens.iter().any(|t| t.text == "rng"));
        assert!(lexed
            .tokens
            .iter()
            .all(|t| t.kind != TokKind::Literal || !t.text.contains("match")));
    }

    #[test]
    fn unterminated_string_runs_to_eof() {
        let lexed = lex("let s = \"never closed\nnext_line();");
        // The whole tail is one literal; nothing after the quote leaks
        // out as an identifier, and the lexer terminates.
        assert!(!lexed.tokens.iter().any(|t| t.text == "next_line"));
    }
}
