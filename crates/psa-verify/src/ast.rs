//! Lightweight function-level AST over the token stream.
//!
//! Full Rust parsing is out of reach offline (no `syn`), and unnecessary:
//! every analysis in this tool needs exactly one shape — *which functions
//! exist, and what ordered facts does each body contain*. This module
//! extracts, per function:
//!
//! * **calls** — `name(` / `.name(` / `path::name(` callee names, used by
//!   the conservative call graph;
//! * **protocol events** — `Msg::Kind` constructions inside a send call
//!   (`send` / `send_sized` / `send_to`) and `Msg::Kind` match patterns followed by `=>`,
//!   in token order, used by the Figure-2 conformance check;
//! * **panic sites** — `.unwrap()` / `.expect(` / panic-family macros;
//! * **indexing sites** — postfix `[expr]` with a non-literal index;
//! * **nondeterminism sources** — wall clocks, unordered collections,
//!   ambient RNG and thread identity, by token sequence. Clippy refuses
//!   the first two by path everywhere but at their `#[expect]`ed sites;
//!   these needles also catch them in a helper a phase entry reaches,
//!   where an `#[expect]` excuses clippy but not the taint pass.
//!
//! Nested `fn` items are split out into their own records (their tokens do
//! not leak into the enclosing body), and `macro_rules!` definitions are
//! skipped entirely — a `$pat => $out` template arm is not a receive.

use crate::lex::{match_delim, Tok, TokKind};

/// Direction of a protocol event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Dir {
    Send,
    Recv,
}

impl Dir {
    pub fn name(self) -> &'static str {
        match self {
            Dir::Send => "send",
            Dir::Recv => "recv",
        }
    }
}

/// One ordered fact inside a function body.
#[derive(Clone, Debug)]
pub enum BodyItem {
    /// A call to `name` (function, method, or path tail).
    Call { name: String, line: usize },
    /// A `Msg::kind` send or receive.
    Event { dir: Dir, kind: String, line: usize },
}

/// A construct that can panic at runtime.
#[derive(Clone, Debug)]
pub struct Site {
    /// What fired (`.unwrap()`, `panic!`, `[index]`, ...).
    pub what: String,
    /// 0-based line.
    pub line: usize,
}

/// One nondeterminism source occurrence.
#[derive(Clone, Debug)]
pub struct SourceHit {
    /// Index of the needle's class in `SOURCES`.
    pub class: usize,
    /// The needle that matched (`Instant::now`, `HashMap`, ...).
    pub what: String,
    pub line: usize,
}

/// One function item.
#[derive(Clone, Debug)]
pub struct FnInfo {
    pub name: String,
    /// 0-based line of the `fn` keyword.
    pub line: usize,
    /// Inside a `#[cfg(test)]` / `#[test]` item.
    pub is_test: bool,
    /// Calls and protocol events, in token order.
    pub items: Vec<BodyItem>,
    /// Panic-family sites (`.unwrap()`, `.expect(`, `panic!`, ...).
    pub panics: Vec<Site>,
    /// Non-literal postfix indexing sites.
    pub indexing: Vec<Site>,
    /// Nondeterminism sources.
    pub sources: Vec<SourceHit>,
}

impl FnInfo {
    /// Callee names in order (convenience over [`FnInfo::items`]).
    pub fn calls(&self) -> impl Iterator<Item = (&str, usize)> {
        self.items.iter().filter_map(|i| match i {
            BodyItem::Call { name, line } => Some((name.as_str(), *line)),
            _ => None,
        })
    }
}

/// Functions whose argument list carries protocol messages.
const SEND_FNS: &[&str] = &["send", "send_sized", "send_to"];

/// Idents that look like calls but never are.
const NON_CALL_IDENTS: &[&str] = &[
    "if", "while", "for", "match", "return", "loop", "move", "else", "in", "as", "let", "fn",
    "pub", "impl", "use", "mod", "struct", "enum", "trait", "where", "unsafe", "ref", "mut", "dyn",
    "box", "Some", "Ok", "Err", "None",
];

/// Panic-family macros.
const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

/// Nondeterminism sources as token sequences, one list per class: wall
/// clock and sleeps, unordered collections, ambient RNG, thread identity.
const SOURCES: &[&[&[&str]]] = &[
    &[&["Instant", "::", "now"], &["SystemTime"], &["thread", "::", "sleep"], &["sleep", "("]],
    &[&["HashMap"], &["HashSet"], &["RandomState"]],
    &[&["thread_rng"], &["rand", "::", "random"], &["from_entropy"], &["OsRng"], &["getrandom"]],
    &[&["thread", "::", "current"]],
];

/// Extract every function item from a tokenized file.
pub fn collect_fns(toks: &[Tok], in_test: &[bool]) -> Vec<FnInfo> {
    // Pass 1: locate `macro_rules!` definition ranges (skipped wholesale)
    // and every `fn` item with its body token range.
    let mut masked = vec![false; toks.len()];
    let mut i = 0;
    while i < toks.len() {
        if toks[i].is_ident("macro_rules") {
            if let Some(end) = skip_macro_def(toks, i) {
                for m in masked.iter_mut().take(end).skip(i) {
                    *m = true;
                }
                i = end;
                continue;
            }
        }
        i += 1;
    }

    let mut fns_raw: Vec<(String, usize, usize, usize)> = Vec::new(); // (name, fn_line, body_start, body_end)
    let mut i = 0;
    while i < toks.len() {
        if masked[i] || !toks[i].is_ident("fn") {
            i += 1;
            continue;
        }
        let Some(name_tok) = toks.get(i + 1) else { break };
        if name_tok.kind != TokKind::Ident {
            i += 1; // `fn(` pointer type, `Fn()` bounds, etc.
            continue;
        }
        // Scan from the name for the body `{` or a `;` (no body) at
        // bracket depth zero relative to the signature.
        let mut depth = 0i32;
        let mut j = i + 2;
        let mut body: Option<(usize, usize)> = None;
        while j < toks.len() {
            let t = &toks[j];
            match t.text.as_str() {
                "(" | "[" | "<" => depth += 1,
                ")" | "]" | ">" => depth -= 1,
                "{" if depth <= 0 => {
                    body = Some((j, match_delim(toks, j)));
                    break;
                }
                ";" if depth <= 0 => break,
                _ => {}
            }
            j += 1;
        }
        if let Some((bs, be)) = body {
            fns_raw.push((name_tok.text.clone(), toks[i].line, bs, be));
            i = bs + 1; // keep scanning inside for nested fns
        } else {
            i = j + 1;
        }
    }

    // Pass 2: per function, walk its body excluding any strictly-nested
    // function bodies and masked macro-definition ranges.
    let mut out = Vec::new();
    for &(ref name, line, bs, be) in &fns_raw {
        let nested: Vec<(usize, usize)> = fns_raw
            .iter()
            .filter(|&&(_, _, nbs, nbe)| nbs > bs && nbe <= be)
            .map(|&(_, _, nbs, nbe)| (nbs, nbe))
            .collect();
        let own: Vec<usize> = (bs..be)
            .filter(|&k| !masked[k] && !nested.iter().any(|&(nbs, nbe)| k > nbs && k < nbe))
            .collect();
        let mut info = FnInfo {
            name: name.clone(),
            line,
            is_test: in_test.get(line) == Some(&true),
            items: Vec::new(),
            panics: Vec::new(),
            indexing: Vec::new(),
            sources: Vec::new(),
        };
        extract_body(toks, &own, &mut info);
        out.push(info);
    }
    out
}

/// Skip a `macro_rules! name { ... }` definition; returns the index one
/// past the closing delimiter.
fn skip_macro_def(toks: &[Tok], i: usize) -> Option<usize> {
    let mut j = i + 1;
    if !toks.get(j)?.is_punct("!") {
        return None;
    }
    j += 1;
    if toks.get(j)?.kind == TokKind::Ident {
        j += 1;
    }
    let open = toks.get(j)?;
    if !matches!(open.text.as_str(), "{" | "(" | "[") {
        return None;
    }
    Some(match_delim(toks, j))
}

/// Walk one body (as a list of visible token indices) collecting calls,
/// events, panic/indexing sites, and nondeterminism sources.
fn extract_body(toks: &[Tok], own: &[usize], info: &mut FnInfo) {
    let at = |k: usize| -> Option<&Tok> { own.get(k).map(|&i| &toks[i]) };
    for k in 0..own.len() {
        let t = &toks[own[k]];

        // Calls: Ident followed by `(`, not a keyword/constructor, not a
        // macro invocation (`name!`), not the declaration name (`fn name(`).
        if t.kind == TokKind::Ident
            && at(k + 1).is_some_and(|n| n.is_punct("("))
            && !NON_CALL_IDENTS.contains(&t.text.as_str())
            && !(k > 0 && at(k - 1).is_some_and(|p| p.is_ident("fn")))
        {
            info.items.push(BodyItem::Call { name: t.text.clone(), line: t.line });
            // Send events: `Msg::Kind` anywhere inside a send-call's args.
            if SEND_FNS.contains(&t.text.as_str()) {
                let close = match_delim_in(toks, own, k + 1);
                let mut m = k + 2;
                while m + 2 < close {
                    if at(m).is_some_and(|x| x.is_ident("Msg"))
                        && at(m + 1).is_some_and(|x| x.is_punct("::"))
                        && at(m + 2).is_some_and(|x| x.kind == TokKind::Ident)
                    {
                        let kt = at(m + 2).expect("checked");
                        info.items.push(BodyItem::Event {
                            dir: Dir::Send,
                            kind: kt.text.clone(),
                            line: kt.line,
                        });
                        m += 3;
                        continue;
                    }
                    m += 1;
                }
            }
        }

        // Recv events: `Msg::Kind` (+ optional `{..}`/`(..)` group), then
        // past any `)` / `|` / `None`, a `=>` — i.e. a match-arm pattern.
        if t.is_ident("Msg")
            && at(k + 1).is_some_and(|x| x.is_punct("::"))
            && at(k + 2).is_some_and(|x| x.kind == TokKind::Ident)
        {
            let kt = at(k + 2).expect("checked");
            let kind = kt.text.clone();
            let (kline, mut m) = (kt.line, k + 3);
            if at(m).is_some_and(|x| x.is_punct("{") || x.is_punct("(")) {
                m = match_delim_in(toks, own, m);
            }
            while at(m).is_some_and(|x| x.is_punct(")") || x.is_punct("|") || x.is_ident("None")) {
                m += 1;
            }
            if at(m).is_some_and(|x| x.is_punct("=>")) {
                info.items.push(BodyItem::Event { dir: Dir::Recv, kind, line: kline });
            }
        }

        // Panic sites.
        if t.kind == TokKind::Ident
            && PANIC_MACROS.contains(&t.text.as_str())
            && at(k + 1).is_some_and(|n| n.is_punct("!"))
        {
            info.panics.push(Site { what: format!("{}!", t.text), line: t.line });
        }
        if t.is_punct(".") {
            if at(k + 1).is_some_and(|n| n.is_ident("unwrap"))
                && at(k + 2).is_some_and(|n| n.is_punct("("))
                && at(k + 3).is_some_and(|n| n.is_punct(")"))
            {
                info.panics.push(Site { what: ".unwrap()".into(), line: t.line });
            }
            if at(k + 1).is_some_and(|n| n.is_ident("expect"))
                && at(k + 2).is_some_and(|n| n.is_punct("("))
            {
                info.panics.push(Site { what: ".expect(".into(), line: t.line });
            }
        }

        // Indexing: postfix `[` after an expression (`ident` / `)` / `]`),
        // with a non-literal index. Attribute (`#[`), type (`: [f64; N]`),
        // and array-literal (`= [..]`) positions fail the prefix test.
        if t.is_punct("[")
            && k > 0
            && at(k - 1).is_some_and(|p| {
                (p.kind == TokKind::Ident && !NON_CALL_IDENTS.contains(&p.text.as_str()))
                    || p.is_punct(")")
                    || p.is_punct("]")
            })
        {
            let close = match_delim_in(toks, own, k);
            let single_literal =
                close == k + 3 && at(k + 1).is_some_and(|x| x.kind == TokKind::Literal);
            if close > k + 1 && !single_literal {
                let idx_text: String = own[k..close.min(own.len())]
                    .iter()
                    .map(|&i| toks[i].text.as_str())
                    .collect::<Vec<_>>()
                    .join("");
                info.indexing.push(Site {
                    what: format!("[{}]", idx_text.trim_matches(['[', ']'])),
                    line: t.line,
                });
            }
        }

        // Nondeterminism sources: one hit per class and line
        // (`thread::sleep(` is both `thread::sleep` and `sleep(`).
        for (class, pats) in SOURCES.iter().enumerate() {
            for pat in pats.iter() {
                if pat
                    .iter()
                    .enumerate()
                    .all(|(off, want)| at(k + off).is_some_and(|x| x.text == *want))
                    && !info.sources.iter().any(|s| s.class == class && s.line == t.line)
                {
                    info.sources.push(SourceHit { class, what: pat.concat(), line: t.line });
                }
            }
        }
    }
}

/// `match_delim` restricted to the visible-index list: `open_k` indexes
/// into `own`; returns the `own` index one past the matching closer.
fn match_delim_in(toks: &[Tok], own: &[usize], open_k: usize) -> usize {
    let Some(&oi) = own.get(open_k) else { return open_k + 1 };
    let (o, c) = match toks[oi].text.as_str() {
        "{" => ("{", "}"),
        "(" => ("(", ")"),
        "[" => ("[", "]"),
        _ => return open_k + 1,
    };
    let mut depth = 0i32;
    let mut k = open_k;
    while k < own.len() {
        let t = &toks[own[k]];
        if t.is_punct(o) {
            depth += 1;
        } else if t.is_punct(c) {
            depth -= 1;
            if depth == 0 {
                return k + 1;
            }
        }
        k += 1;
    }
    own.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fns(src: &str) -> Vec<FnInfo> {
        crate::corpus::Unit::parse("t.rs", src).fns
    }

    #[test]
    fn finds_free_impl_and_nested_fns() {
        let src = "fn a() { helper(); }\nimpl T { fn b(&self) { fn inner() { x.unwrap(); } inner(); } }\n";
        let f = fns(src);
        let names: Vec<&str> = f.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["a", "b", "inner"]);
        // inner's unwrap belongs to inner, not b
        let b = f.iter().find(|f| f.name == "b").unwrap();
        assert!(b.panics.is_empty(), "{:?}", b.panics);
        let inner = f.iter().find(|f| f.name == "inner").unwrap();
        assert_eq!(inner.panics.len(), 1);
        assert!(b.calls().any(|(n, _)| n == "inner"));
    }

    #[test]
    fn macro_rules_bodies_are_invisible() {
        let src = "macro_rules! m { ($p:pat => $o:expr) => { match x { Msg::Load { .. } => 1 } }; }\nfn real() {}\n";
        let f = fns(src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].name, "real");
        assert!(f[0].items.is_empty());
    }

    #[test]
    fn send_and_recv_events_in_order() {
        let src = r#"
fn role(ep: &E) {
    ep.send(to, Msg::Particles { system: 0, batch, scale: 1.0 });
    ep.send(to, Msg::EndOfTransmission { system: 0 });
    let b = expect_msg!(ep, d, from, Msg::Load { info, .. } => info, "Load");
    match q {
        Some(Msg::Orders { .. }) | None => {}
    }
}
"#;
        let f = fns(src);
        let events: Vec<(Dir, &str)> = f[0]
            .items
            .iter()
            .filter_map(|i| match i {
                BodyItem::Event { dir, kind, .. } => Some((*dir, kind.as_str())),
                _ => None,
            })
            .collect();
        assert_eq!(
            events,
            vec![
                (Dir::Send, "Particles"),
                (Dir::Send, "EndOfTransmission"),
                (Dir::Recv, "Load"),
                (Dir::Recv, "Orders"),
            ]
        );
    }

    #[test]
    fn if_let_on_a_message_is_neither_send_nor_recv() {
        let src = "fn send_to(&mut self, msg: Msg) {\n    if let Msg::Particles { batch, .. } = &msg { count(batch); }\n    self.net.send(from, to, msg);\n}\n";
        let f = fns(src);
        let events: Vec<_> =
            f[0].items.iter().filter(|i| matches!(i, BodyItem::Event { .. })).collect();
        assert!(events.is_empty(), "{events:?}");
    }

    #[test]
    fn unit_variant_match_arm_is_a_recv() {
        let src = "fn f(m: Msg) -> u32 { match m { Msg::EndOfTransmission => 1, _ => 0 } }\n";
        let f = fns(src);
        assert!(f[0]
            .items
            .iter()
            .any(|i| matches!(i, BodyItem::Event { dir: Dir::Recv, kind, .. } if kind == "EndOfTransmission")));
    }

    #[test]
    fn indexing_detection_skips_types_attrs_and_literals() {
        let src = "#[derive(Debug)]\nfn f(v: &[f64], i: usize) -> f64 {\n    let a: [f64; 3] = [0.0, 1.0, 2.0];\n    let first = v[0];\n    v[i] + a[i + 1]\n}\n";
        let f = fns(src);
        let sites: Vec<usize> = f[0].indexing.iter().map(|s| s.line).collect();
        assert_eq!(sites, vec![4, 4], "{:?}", f[0].indexing);
    }

    #[test]
    fn panic_sites_and_sources_collected() {
        let src = "fn f() {\n    let t = Instant::now();\n    let m = HashMap::new();\n    x.unwrap();\n    y.expect(\"msg\");\n    panic!(\"no\");\n    z.unwrap_or_else(d);\n}\n";
        let f = fns(src);
        assert_eq!(f[0].panics.len(), 3, "{:?}", f[0].panics);
        assert_eq!(f[0].sources.len(), 2, "{:?}", f[0].sources);
        assert!(f[0].sources.iter().any(|s| s.what == "Instant::now"));
        assert!(f[0].sources.iter().any(|s| s.what == "HashMap"));
    }

    #[test]
    fn sources_are_kept_per_class_and_line() {
        let src = "fn f() {\n    let m: HashMap<u8, Instant> = stamp(Instant::now());\n    thread::sleep(d);\n}\n";
        let f = fns(src);
        let hits: Vec<(&str, usize)> =
            f[0].sources.iter().map(|s| (s.what.as_str(), s.line)).collect();
        assert_eq!(hits, [("HashMap", 1), ("Instant::now", 1), ("thread::sleep", 2)]);
    }

    #[test]
    fn test_fns_are_marked() {
        let src = "#[cfg(test)]\nmod tests {\n    fn helper() {}\n}\nfn shipped() {}\n";
        let f = fns(src);
        assert!(f.iter().find(|f| f.name == "helper").unwrap().is_test);
        assert!(!f.iter().find(|f| f.name == "shipped").unwrap().is_test);
    }
}
