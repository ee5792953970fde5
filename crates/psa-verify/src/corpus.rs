//! The analysis corpus: one [`Unit`] per source file, lexed once and
//! shared by every pass (call graph, taint, panic
//! reachability, protocol conformance, suppression audit) — and the one
//! place a finding is built ([`Unit::finding`]).
//!
//! Units also carry the two analysis pragmas fixtures use to opt into the
//! graph passes without living at a policy-known workspace path (read by
//! [`crate::lex`]):
//!
//! * `// psa-verify: protocol-role(<role>, <entry_fn>)` — check
//!   `<entry_fn>`'s extracted send/recv sequence against `<role>`'s
//!   Figure-2 table;
//! * `// psa-verify: panic-entry(<fn>)` — treat `<fn>` as a protocol root
//!   for the panic-reachability pass.

use crate::ast::{collect_fns, FnInfo};
use crate::lex::{lex, Lexed};
use crate::lints::LintDef;
use crate::report::Violation;

/// One parsed source file.
pub struct Unit {
    /// Workspace-relative path (`/` separators) — drives policy decisions
    /// and appears in diagnostics. For fixtures this is the bare filename.
    pub rel: String,
    /// Source lines (0-based), for snippets.
    pub lines: Vec<String>,
    /// Tokens, test scope, allows and pragmas.
    pub lex: Lexed,
    pub fns: Vec<FnInfo>,
}

impl Unit {
    pub fn parse(rel: &str, src: &str) -> Unit {
        let lex = lex(src);
        let fns = collect_fns(&lex.toks, &lex.in_test);
        Unit { rel: rel.to_string(), lines: src.lines().map(str::to_string).collect(), lex, fns }
    }

    /// Is 0-based `line` inside a `#[cfg(test)]` / `#[test]` item?
    pub fn in_test(&self, line: usize) -> bool {
        self.lex.in_test.get(line) == Some(&true)
    }

    /// A `lint` finding at 0-based `line`: the lint's message, the 1-based
    /// line, and the trimmed source line as its snippet.
    pub fn finding(&self, lint: &LintDef, line: usize, needle: String) -> Violation {
        Violation {
            lint: lint.id,
            file: self.rel.clone(),
            line: line + 1,
            needle,
            message: lint.message,
            snippet: self.lines.get(line).map_or("", |l| l.trim()).to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pragmas_are_parsed_from_comments_only() {
        let src = "\
// psa-verify: protocol-role(manager, frame_loop)
// psa-verify: panic-entry(handle_msg)
fn frame_loop() {}
fn handle_msg() {}
let s = \"psa-verify: panic-entry(not_me)\";
";
        let u = Unit::parse("fixture.rs", src);
        assert_eq!(u.lex.roles, vec![("manager".to_string(), "frame_loop".to_string())]);
        assert_eq!(u.lex.panic_entries, vec!["handle_msg".to_string()]);
    }

    #[test]
    fn unit_exposes_fns_and_lines() {
        let u = Unit::parse("x.rs", "fn a() {}\nfn b() { a(); }\n");
        assert_eq!(u.fns.len(), 2);
        assert_eq!(u.lines.len(), 2);
        let v = u.finding(&crate::lints::PROTOCOL_ORDER, 1, "n".into());
        assert_eq!((v.line, v.snippet.as_str()), (2, "fn b() { a(); }"));
    }
}
