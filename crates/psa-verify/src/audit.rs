//! Central suppression + escape-hatch audit.
//!
//! Every pass (token lints, taint, panic reachability, protocol
//! conformance) emits *raw* findings — nothing is filtered at the point of
//! detection. This pass is the single place `// psa-verify: allow(<key>)`
//! annotations are honoured, which is what makes the audit sound: an
//! annotation that suppressed nothing in the whole run *provably* guards
//! nothing, and becomes a `stale-allow` error. The escape-hatch inventory
//! can only shrink — deleting dead allows is mandatory, not housekeeping.
//!
//! A raw finding may carry several keys (taint findings accept both
//! `nondet-taint` and the source-class key); suppression by *any* key
//! counts the annotation as used.

use crate::corpus::Unit;
use crate::lints::{known_allow_key, STALE_ALLOW};
use crate::report::Violation;

/// One unsuppressed finding: the violation plus every allow-key that may
/// silence it, tied back to its corpus unit.
#[derive(Debug)]
pub struct Raw {
    pub unit: usize,
    pub v: Violation,
    pub keys: Vec<&'static str>,
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
            if raw.keys.contains(&a.key.as_str()) && a.covers(raw.v.line - 1) {
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
            let needle = if a.key == STALE_ALLOW.allow_key {
                // `allow(stale-allow)` would make the audit self-defeating.
                continue;
            } else if !known_allow_key(&a.key) {
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

    fn raw(unit: usize, line: usize, lint: &'static str, keys: Vec<&'static str>) -> Raw {
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
            keys,
        }
    }

    #[test]
    fn line_allow_suppresses_and_counts_as_used() {
        let u = Unit::parse(
            "f.rs",
            "use x;\n// psa-verify: allow(wall-clock) reason\nlet t = Instant::now();\n",
        );
        let out = apply(&[u], vec![raw(0, 3, "wall-clock", vec!["wall-clock"])]);
        assert!(out.is_empty(), "{out:#?}");
    }

    #[test]
    fn unused_allow_is_a_stale_allow_error() {
        let u = Unit::parse(
            "f.rs",
            "use x;\n// psa-verify: allow(wall-clock) nothing here\nlet y = 1;\n",
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
            "use x;\n// psa-verify: allow(wallclock) typo\nlet t = Instant::now();\n",
        );
        let out = apply(&[u], vec![raw(0, 3, "wall-clock", vec!["wall-clock"])]);
        assert_eq!(out.len(), 2, "{out:#?}"); // the violation AND the typo'd allow
        assert!(out.iter().any(|v| v.lint == "stale-allow" && v.needle.contains("unknown")));
        assert!(out.iter().any(|v| v.lint == "wall-clock"));
    }

    #[test]
    fn any_key_of_a_multi_key_finding_suppresses_it() {
        let u = Unit::parse(
            "f.rs",
            "use x;\n// psa-verify: allow(wall-clock) timing fence\nlet t = Instant::now();\n",
        );
        let out = apply(&[u], vec![raw(0, 3, "nondet-taint", vec!["nondet-taint", "wall-clock"])]);
        assert!(out.is_empty(), "{out:#?}");
    }

    #[test]
    fn file_allow_suppresses_any_line_and_a_dead_one_beside_it_is_reported() {
        let u = Unit::parse(
            "f.rs",
            "// psa-verify: allow(index-panic) bounds by construction\nfn f() {}\n// psa-verify: allow(unordered) dead\n",
        );
        let audited = apply(&[u], vec![raw(0, 2, "index-panic", vec!["index-panic"])]);
        assert_eq!(audited.len(), 1, "{audited:#?}");
        assert_eq!(audited[0].lint, "stale-allow");
        assert_eq!(audited[0].line, 3);
    }
}
