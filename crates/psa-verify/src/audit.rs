//! Central suppression + escape-hatch audit.
//!
//! Every pass (taint, panic reachability, protocol conformance) emits
//! *raw* findings — nothing is filtered at the point of detection. This
//! pass is the single place `// psa-verify: allow(<lint id>)` annotations
//! are honoured, which is what makes the audit sound: an annotation that
//! suppressed nothing in the whole run *provably* guards nothing, and
//! becomes a `stale-allow` error. The escape-hatch inventory can only
//! shrink — deleting dead allows is mandatory, not housekeeping. (The
//! compiler audits the other kind of suppression the same way: an
//! `#[expect]` that suppresses nothing is a warning.)

use crate::corpus::Unit;
use crate::lints::{by_id, STALE_ALLOW};
use crate::report::Violation;

/// One unsuppressed finding, tied back to its corpus unit.
#[derive(Debug)]
pub struct Raw {
    pub unit: usize,
    pub v: Violation,
}

/// Apply allow-annotations to `raws`; surviving violations come back, plus
/// a `stale-allow` error per annotation that never suppressed anything or
/// names an unknown key.
pub fn apply(units: &[Unit], raws: Vec<Raw>) -> Vec<Violation> {
    // Per unit: one `used` flag per annotation.
    let mut used: Vec<Vec<bool>> = units.iter().map(|u| vec![false; u.lex.allows.len()]).collect();

    let mut out = Vec::new();
    for raw in raws {
        let mut suppressed = false;
        for (ai, a) in units[raw.unit].lex.allows.iter().enumerate() {
            // violations are 1-based
            if a.key == raw.v.lint && a.covers(raw.v.line - 1) {
                used[raw.unit][ai] = true;
                suppressed = true;
            }
        }
        if !suppressed {
            out.push(raw.v);
        }
    }

    for (u, used) in units.iter().zip(&used) {
        for (a, &used) in u.lex.allows.iter().zip(used) {
            let needle = if a.key == STALE_ALLOW.id {
                // `allow(stale-allow)` would make the audit self-defeating.
                continue;
            } else if by_id(&a.key).is_none() {
                format!("allow({}) names an unknown lint key", a.key)
            } else if !used {
                format!("allow({}) suppresses nothing", a.key)
            } else {
                continue;
            };
            out.push(u.finding(&STALE_ALLOW, a.line, needle));
        }
    }

    out.sort_by(|a, b| (&a.file, a.line, a.lint).cmp(&(&b.file, b.line, b.lint)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn raw(unit: usize, line: usize, lint: &'static str) -> Raw {
        Raw {
            unit,
            v: Violation {
                lint,
                file: "f.rs".to_string(),
                line,
                needle: "x".to_string(),
                message: "m",
                snippet: String::new(),
            },
        }
    }

    #[test]
    fn line_allow_suppresses_and_counts_as_used() {
        let u = Unit::parse(
            "f.rs",
            "use x;\n// psa-verify: allow(nondet-taint) reason\nlet t = Instant::now();\n",
        );
        let out = apply(&[u], vec![raw(0, 3, "nondet-taint")]);
        assert!(out.is_empty(), "{out:#?}");
    }

    #[test]
    fn unused_allow_is_a_stale_allow_error() {
        let u = Unit::parse(
            "f.rs",
            "use x;\n// psa-verify: allow(nondet-taint) nothing here\nlet y = 1;\n",
        );
        let out = apply(&[u], vec![]);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].lint, "stale-allow");
        assert_eq!(out[0].line, 2);
        assert!(out[0].needle.contains("suppresses nothing"));
    }

    #[test]
    fn unknown_key_is_a_stale_allow_error_even_if_positioned_right() {
        let u = Unit::parse(
            "f.rs",
            "use x;\n// psa-verify: allow(nondet_taint) typo\nlet t = Instant::now();\n",
        );
        let out = apply(&[u], vec![raw(0, 3, "nondet-taint")]);
        assert_eq!(out.len(), 2, "{out:#?}"); // the violation AND the typo'd allow
        assert!(out.iter().any(|v| v.lint == "stale-allow" && v.needle.contains("unknown")));
        assert!(out.iter().any(|v| v.lint == "nondet-taint"));
    }

    #[test]
    fn an_allow_suppresses_only_its_own_lint() {
        let u = Unit::parse(
            "f.rs",
            "use x;\n// psa-verify: allow(index-panic) bounds by construction\nlet t = v[i];\n",
        );
        let out = apply(&[u], vec![raw(0, 3, "nondet-taint")]);
        assert_eq!(out.len(), 2, "{out:#?}"); // the finding AND the unused allow
        assert!(out.iter().any(|v| v.lint == "nondet-taint"));
        assert!(out.iter().any(|v| v.lint == "stale-allow" && v.needle.contains("nothing")));
    }

    #[test]
    fn file_allow_suppresses_any_line_and_a_dead_one_beside_it_is_reported() {
        let u = Unit::parse(
            "f.rs",
            "// psa-verify: allow(index-panic) bounds by construction\nfn f() {}\n// psa-verify: allow(nondet-taint) dead\n",
        );
        let audited = apply(&[u], vec![raw(0, 2, "index-panic")]);
        assert_eq!(audited.len(), 1, "{audited:#?}");
        assert_eq!(audited[0].lint, "stale-allow");
        assert_eq!(audited[0].line, 3);
    }
}
