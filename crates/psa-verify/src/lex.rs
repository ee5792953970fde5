//! The one lexer: a single character pass over a Rust source file (no
//! `syn` offline; every analysis reads tokens or the graph built on them),
//! and all the analyses read from that file, derived from its output:
//!
//! * **tokens** — maximal-munch identifiers (`unwrap_or_else` never
//!   matches `unwrap`), numbers, lifetimes, punctuation with `::` `=>` `->`
//!   `..` fused. Every string / raw / byte / char literal is *one* blank
//!   `""` token on its first line, however many lines it spans — so
//!   `"HashMap"` is no source, and nothing after the closing quote is lost;
//! * **test scope** — `#[test]` / `#[cfg(..test..)]` reaches to the next
//!   depth-0 `{` and covers through its matching `}`; a `;` first
//!   (`#[cfg(test)] use x;`) ends its reach;
//! * **allows and pragmas** — read from the comment text by [`tag`], the
//!   one tag parser (the selftest's `expect(...)` too).

/// What kind of lexeme a token is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (`fn`, `HashMap`, `unwrap_or_else`, ...).
    Ident,
    /// Numeric literal, or a blank `""` for any string/char literal.
    Literal,
    /// Lifetime tick + name (`'a`, `'static`).
    Lifetime,
    /// Punctuation, possibly fused (`::`, `=>`, `->`, `..`, `(`, `{`, ...).
    Punct,
}

/// One token with its 0-based source line.
#[derive(Clone, Debug)]
pub struct Tok {
    pub kind: TokKind,
    pub text: String,
    /// 0-based line in the original file.
    pub line: usize,
}

impl Tok {
    /// Is this token exactly the identifier `s`?
    pub fn is_ident(&self, s: &str) -> bool {
        self.kind == TokKind::Ident && self.text == s
    }

    /// Is this token exactly the punctuation `s`?
    pub fn is_punct(&self, s: &str) -> bool {
        self.kind == TokKind::Punct && self.text == s
    }
}

/// One `// psa-verify: allow(<key>)` annotation.
#[derive(Debug, PartialEq)]
pub struct Allow {
    /// 0-based line of the annotation.
    pub line: usize,
    pub key: String,
    /// Placed above the first token: covers the whole file.
    pub file: bool,
}

impl Allow {
    /// Does the annotation cover 0-based `line`? A line-level one covers
    /// its own line and the next, so it can sit above the finding.
    pub fn covers(&self, line: usize) -> bool {
        self.file || self.line == line || self.line + 1 == line
    }
}

/// Everything the analyses read from one file.
#[derive(Debug)]
pub struct Lexed {
    pub toks: Vec<Tok>,
    /// Per 0-based line: inside a `#[cfg(test)]` / `#[test]` item.
    pub in_test: Vec<bool>,
    pub allows: Vec<Allow>,
    /// `protocol-role(role, fn)` pragmas.
    pub roles: Vec<(String, String)>,
    /// `panic-entry(fn)` pragmas.
    pub panic_entries: Vec<String>,
}

/// Compound puncts the analyses distinguish, fused by maximal munch;
/// `..=` is lexed as `..` + `=`, which no pattern cares about.
const FUSED: &[&str] = &["::", "=>", "->", ".."];

/// The trimmed `args` of `<prefix>args)` in `text`: the one parser of the
/// `allow(`, `protocol-role(`, `panic-entry(` and fixture `expect(` tags.
pub fn tag<'a>(text: &'a str, prefix: &str) -> Option<&'a str> {
    let start = text.find(prefix)? + prefix.len();
    let len = text[start..].find(')')?;
    Some(text[start..start + len].trim())
}

/// Lex one file.
pub fn lex(src: &str) -> Lexed {
    let mut cx =
        Cursor { chars: src.chars().collect(), i: 0, line: 0, comments: vec![String::new()] };
    let mut toks = Vec::new();
    while let Some(c) = cx.peek(0) {
        let (start, line) = (cx.i, cx.line);
        let kind = if c.is_whitespace() {
            cx.bump();
            continue;
        } else if c == '/' && matches!(cx.peek(1), Some('/' | '*')) {
            cx.comment();
            continue;
        } else if cx.literal() {
            toks.push(Tok { kind: TokKind::Literal, text: "\"\"".into(), line });
            continue;
        } else if c.is_alphabetic() || c == '_' {
            cx.eat_ident();
            TokKind::Ident
        } else if c.is_ascii_digit() {
            // Digits plus type-suffix/float tail; `.` is taken only once and
            // only before a digit, so `0..n` keeps its `..`.
            let dot = |cx: &Cursor| {
                cx.peek(1).is_some_and(|d| d.is_ascii_digit())
                    && !cx.chars[start..cx.i].contains(&'.')
            };
            while cx
                .peek(0)
                .is_some_and(|n| n.is_alphanumeric() || n == '_' || n == '.' && dot(&cx))
            {
                cx.i += 1;
            }
            TokKind::Literal
        } else if c == '\'' {
            // Not a char literal (`literal` took those), so a lifetime.
            cx.i += 1;
            cx.eat_ident();
            TokKind::Lifetime
        } else {
            let two: String = cx.chars[start..(start + 2).min(cx.chars.len())].iter().collect();
            cx.i += if FUSED.contains(&two.as_str()) { 2 } else { 1 };
            TokKind::Punct
        };
        toks.push(Tok { kind, text: cx.chars[start..cx.i].iter().collect(), line });
    }

    let in_test = test_scope(&toks, cx.comments.len());
    let first_code = toks.first().map_or(usize::MAX, |t| t.line);
    let mut lexed = Lexed { toks, in_test, allows: vec![], roles: vec![], panic_entries: vec![] };
    for (line, com) in cx.comments.iter().enumerate() {
        if let Some(key) = tag(com, "psa-verify: allow(") {
            lexed.allows.push(Allow { line, key: key.to_string(), file: line < first_code });
        }
        if let Some((role, entry)) =
            tag(com, "psa-verify: protocol-role(").and_then(|a| a.split_once(','))
        {
            lexed.roles.push((role.trim().to_string(), entry.trim().to_string()));
        }
        if let Some(entry) = tag(com, "psa-verify: panic-entry(") {
            lexed.panic_entries.push(entry.to_string());
        }
    }
    lexed
}

struct Cursor {
    chars: Vec<char>,
    i: usize,
    line: usize,
    /// Comment text per line (markers removed).
    comments: Vec<String>,
}

impl Cursor {
    fn peek(&self, k: usize) -> Option<char> {
        self.chars.get(self.i + k).copied()
    }

    /// Advance one character; the only place a newline is counted.
    fn bump(&mut self) -> Option<char> {
        let c = self.peek(0)?;
        self.i += 1;
        if c == '\n' {
            self.line += 1;
            self.comments.push(String::new());
        }
        Some(c)
    }

    fn eat_ident(&mut self) {
        while self.peek(0).is_some_and(|c| c.is_alphanumeric() || c == '_') {
            self.i += 1;
        }
    }

    /// A `//` comment to the end of its line, or a nested `/* /* */ */`
    /// one; the text, markers removed, goes to the comment channel.
    fn comment(&mut self) {
        let block = self.peek(1) == Some('*');
        self.i += 2;
        let mut depth = 1;
        while depth > 0 {
            let Some(c) = self.peek(0) else { return };
            match (c, self.peek(1)) {
                ('\n', _) if !block => return,
                ('/', Some('*')) if block => depth += 1,
                ('*', Some('/')) if block => depth -= 1,
                _ => {
                    if c != '\n' {
                        self.comments[self.line].push(c);
                    }
                    self.bump();
                    continue;
                }
            }
            self.i += 2;
        }
    }

    /// Consume a string / raw / byte / char literal if one starts here
    /// (`"..."`, `r#"..."#`, `b"..."`, `br"..."`, `'x'`, `b'x'`). Called at
    /// token starts only, so a `b` or `r` here is never inside an ident.
    fn literal(&mut self) -> bool {
        let b = usize::from(self.peek(0) == Some('b'));
        let raw = self.peek(b) == Some('r');
        let hashes = (b + 1..).take_while(|&j| raw && self.peek(j) == Some('#')).count();
        let quote = b + usize::from(raw) + hashes;
        // A `'` opens a char literal, not a lifetime, before an escape or a
        // single closed char.
        let char_lit = self.peek(quote + 1) == Some('\\') || self.peek(quote + 2) == Some('\'');
        let close = match self.peek(quote) {
            Some('"') => '"',
            Some('\'') if char_lit && !raw => '\'',
            _ => return false, // an ident (`r`, `br`, `brace`), `r#ident`, a lifetime
        };
        self.i += quote + 1;
        while let Some(c) = self.bump() {
            if c == '\\' && !raw {
                self.bump();
            } else if c == close && (0..hashes).all(|j| self.peek(j) == Some('#')) {
                self.i += hashes;
                break;
            }
        }
        true
    }
}

/// Index one past the token closing the `{` / `(` / `[` at `open`.
pub fn match_delim(toks: &[Tok], open: usize) -> usize {
    let o = toks[open].text.as_str();
    let c = match o {
        "{" => "}",
        "(" => ")",
        "[" => "]",
        _ => return open + 1,
    };
    let mut depth = 0i32;
    for (j, t) in toks.iter().enumerate().skip(open) {
        depth += i32::from(t.is_punct(o)) - i32::from(t.is_punct(c));
        if depth == 0 {
            return j + 1;
        }
    }
    toks.len()
}

/// Mark the lines of every `#[test]` / `#[cfg(..test..)]` item, from the
/// attribute through the matching `}` of the next depth-0 `{` — or through
/// a depth-0 `;` if one comes first. `test` must be a whole token, so
/// `psa_tsan` / `testing_x` never count; a `not(test)` gate would (no item
/// in this workspace carries one, and it only makes the lints stricter).
fn test_scope(toks: &[Tok], lines: usize) -> Vec<bool> {
    let mut mask = vec![false; lines];
    for (a, t) in toks.iter().enumerate() {
        if !(t.is_punct("#") && toks.get(a + 1).is_some_and(|b| b.is_punct("["))) {
            continue;
        }
        let after = match_delim(toks, a + 1);
        let attr = toks.get(a + 2..after - 1).unwrap_or(&[]);
        let is_test = match attr {
            [only] => only.is_ident("test"),
            [cfg, rest @ ..] => cfg.is_ident("cfg") && rest.iter().any(|t| t.is_ident("test")),
            [] => false,
        };
        if !is_test {
            continue;
        }
        let mut depth = 0i32;
        let reach = (after..toks.len()).find(|&j| {
            match toks[j].text.as_str() {
                "(" | "[" => depth += 1,
                ")" | "]" => depth -= 1,
                "{" | ";" => return depth == 0,
                _ => {}
            }
            false
        });
        let last = match reach {
            Some(j) if toks[j].text == "{" => match_delim(toks, j) - 1,
            Some(j) => j,
            None => toks.len() - 1,
        };
        mask[t.line..=toks[last].line].fill(true);
    }
    mask
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lx(src: &str) -> Vec<Tok> {
        lex(src).toks
    }

    fn texts(toks: &[Tok]) -> Vec<&str> {
        toks.iter().map(|t| t.text.as_str()).collect()
    }

    /// 0-based lines of the `ident` tokens in `src`.
    fn lines_of(src: &str, ident: &str) -> Vec<usize> {
        lx(src).iter().filter(|t| t.is_ident(ident)).map(|t| t.line).collect()
    }

    #[test]
    fn idents_are_maximal_munch() {
        let t = lx("x.unwrap_or_else(f)");
        assert!(t.iter().any(|t| t.is_ident("unwrap_or_else")));
        assert!(!t.iter().any(|t| t.is_ident("unwrap")));
    }

    #[test]
    fn compound_puncts_fuse() {
        let t = lx("Instant::now(); a => b; f -> c; 0..n");
        let tx = texts(&t);
        assert!(tx.contains(&"::"));
        assert!(tx.contains(&"=>"));
        assert!(tx.contains(&"->"));
        assert!(tx.contains(&".."));
    }

    #[test]
    fn range_does_not_swallow_numbers() {
        let t = lx("for i in 0..10 {}");
        let tx = texts(&t);
        assert!(tx.contains(&"0") && tx.contains(&"..") && tx.contains(&"10"));
    }

    #[test]
    fn floats_and_method_calls_split_correctly() {
        let t = lx("let x = 1.5e-3; v.len()");
        assert!(t.iter().any(|t| t.text == "1.5e"), "{:?}", texts(&t));
        assert!(t.iter().any(|t| t.is_ident("len")));
        // `1.5e-3` lexes as literal + `-` + literal; no analysis pattern
        // cares, it only must not corrupt neighbouring tokens.
        assert!(t.iter().any(|t| t.is_punct(";")));
    }

    #[test]
    fn strings_are_blank_literals_and_lines_tracked() {
        let t = lx("let s = \"HashMap\";\nlet m = HashMap::new();\n");
        let hash_toks: Vec<_> = t.iter().filter(|t| t.is_ident("HashMap")).collect();
        assert_eq!(hash_toks.len(), 1);
        assert_eq!(hash_toks[0].line, 1);
    }

    #[test]
    fn lifetimes_lex_as_one_token() {
        let t = lx("fn f<'a>(x: &'a str) {}");
        assert!(t.iter().any(|t| t.kind == TokKind::Lifetime && t.text == "'a"));
    }

    #[test]
    fn comments_and_strings_are_not_code() {
        let src =
            "let x = \"HashMap in a string\"; // HashMap in a comment\n/* HashMap */ let y = 1;\n";
        let t = lx(src);
        assert!(!t.iter().any(|t| t.is_ident("HashMap")), "{:?}", texts(&t));
        assert!(t.iter().any(|t| t.is_ident("y") && t.line == 1));
        // The comment channel still sees it: an allow there is honoured.
        let a = lex("let x = 1; // psa-verify: allow(nondet-taint) HashMap\n");
        assert_eq!(a.allows, vec![Allow { line: 0, key: "nondet-taint".into(), file: false }]);
    }

    #[test]
    fn raw_strings_and_chars_are_blanked() {
        let t = lx("let s = r#\"Instant::now\"#; let c = '\\'';\nlet l: &'a str;\n");
        assert!(!t.iter().any(|t| t.is_ident("Instant")));
        assert_eq!(t.iter().filter(|t| t.text == "\"\"").count(), 2, "{:?}", texts(&t));
        assert!(t.iter().any(|t| t.kind == TokKind::Lifetime && t.text == "'a" && t.line == 1));
    }

    #[test]
    fn nested_block_comments() {
        let t = lx("/* a /* b */ still comment */ let z = 3;\n");
        assert_eq!(texts(&t), vec!["let", "z", "=", "3", ";"]);
    }

    #[test]
    fn test_mask_covers_cfg_test_mod() {
        let src = "fn real() {}\n#[cfg(test)]\nmod tests {\n    fn helper() { x.unwrap(); }\n}\nfn also_real() {}\n";
        let m = lex(src).in_test;
        assert!(!m[0]);
        assert!(m[1] && m[2] && m[3] && m[4]);
        assert!(!m[5]);
    }

    #[test]
    fn compound_test_cfgs_are_masked() {
        let src = "#[cfg(all(test, not(loom)))]\nmod model {\n    fn f() { x.unwrap(); }\n}\nfn shipped() {}\n";
        let m = lex(src).in_test;
        assert!(m[0] && m[2]);
        assert!(!m[4]);
        // `tsan`/`testing_x` must not count as the `test` predicate
        let n = lex("#[cfg(psa_tsan)]\nfn f() {}\n#[cfg(testing_x)]\nfn g() {}\n").in_test;
        assert!(!n[1] && !n[3]);
    }

    #[test]
    fn a_test_fn_closing_inside_a_test_mod_keeps_the_mod_in_scope() {
        // The brace-counting mask let the inner `#[test]` overwrite the
        // module's guard, so a helper after the first test fn (like the one
        // spawning a calculator in `threaded.rs`'s tests) counted as shipped.
        let src = "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {}\n    fn helper() {\n        std::thread::spawn(|| 1);\n    }\n}\nfn shipped() {}\n";
        let m = lex(src).in_test;
        assert!(m[..8].iter().all(|&t| t), "{m:?}");
        assert!(!m[8]);
    }

    #[test]
    fn file_level_allow_sits_above_code() {
        let src = "//! docs\n// psa-verify: allow(index-panic) — reason\nuse std::time::Instant;\n";
        assert_eq!(lex(src).allows, vec![Allow { line: 1, key: "index-panic".into(), file: true }]);
    }

    #[test]
    fn line_level_allow_covers_next_line() {
        let src = "use x;\n// psa-verify: allow(nondet-taint)\nlet m = HashMap::new();\nlet n = HashMap::new();\n";
        let allows = lex(src).allows;
        assert_eq!(allows, vec![Allow { line: 1, key: "nondet-taint".into(), file: false }]);
        assert!(allows[0].covers(1) && allows[0].covers(2));
        assert!(!allows[0].covers(3));
        assert_eq!(lines_of(src, "HashMap"), vec![2, 3]);
    }

    #[test]
    fn code_after_a_multi_line_string_is_still_code() {
        // The two-pass model lexed `"; let m = HashMap..` on the closing
        // line as the start of a string and lost the rest of the line.
        let src = "fn f() {\n    let s = \"two\nlines\"; let m = HashMap::new();\n}\n";
        assert_eq!(lines_of(src, "HashMap"), vec![2]);
        let t = lx(src);
        assert_eq!(t.iter().find(|t| t.text == "\"\"").map(|t| t.line), Some(1));
    }

    #[test]
    fn a_cfg_test_item_ended_by_a_semicolon_exempts_nothing_after_it() {
        for gate in ["#[cfg(test)] use std::fmt;", "#[cfg(test)]\nmod x;"] {
            let src = format!("{gate}\nfn shipped(x: Option<u8>) -> u8 {{\n    x.unwrap()\n}}\n");
            let line = src.lines().position(|l| l.contains("unwrap")).unwrap();
            let mask = lex(&src).in_test;
            assert!(mask[0], "the gated item itself is test code");
            assert!(!mask[line - 1..=line + 1].iter().any(|&t| t), "{gate}: {mask:?}");
        }
    }

    #[test]
    fn byte_and_raw_literals_are_one_token_each() {
        let t = lx("f(br\"\\\", b\"x\\\"y\", b'x', b'\\'', r#\"a\"b\"#, HashMap);");
        assert_eq!(
            texts(&t),
            vec![
                "f", "(", "\"\"", ",", "\"\"", ",", "\"\"", ",", "\"\"", ",", "\"\"", ",",
                "HashMap", ")", ";"
            ]
        );
        assert_eq!(lines_of("let a = br\"\\\"; let m = HashMap::new();\n", "HashMap"), vec![0]);
        // `r` / `b` / `br` alone, and raw identifiers, stay identifiers.
        assert_eq!(
            texts(&lx("r + b * br; r#type")),
            vec!["r", "+", "b", "*", "br", ";", "r", "#", "type"]
        );
    }

    #[test]
    fn tag_reads_every_annotation_and_pragma() {
        let src = "\
// psa-verify: protocol-role( manager , frame_loop )
// psa-verify: panic-entry(handle_msg)
fn f() {} // psa-verify: allow(index-panic) trailing text (with parens)
let s = \"psa-verify: panic-entry(not_me)\";
";
        let l = lex(src);
        assert_eq!(l.roles, vec![("manager".to_string(), "frame_loop".to_string())]);
        assert_eq!(l.panic_entries, vec!["handle_msg".to_string()]);
        assert_eq!(l.allows, vec![Allow { line: 2, key: "index-panic".into(), file: false }]);
        assert_eq!(
            tag("// psa-verify-fixture: expect(stale-allow)", "expect("),
            Some("stale-allow")
        );
        assert_eq!(tag("no tag here", "expect("), None);
    }
}
