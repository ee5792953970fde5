//! Diagnostics output: human `file:line` text and a machine-readable JSON
//! report. JSON is hand-rolled — this workspace builds fully offline, so
//! `serde` is not available, and the schema is small enough that an escape
//! function plus string assembly is clearer than a dependency would be.
//!
//! The JSON schema is versioned (`schema_version`) and covered by a golden
//! test in `main.rs`, so downstream tooling (the CI diagnostics artifact)
//! can rely on it: stable lint ids, workspace-relative `file` + 1-based
//! `line` spans, and a machine-readable `severity` per violation.

/// JSON schema version; bump when a field changes meaning or disappears.
/// Adding fields is backward compatible and does not bump it.
pub const SCHEMA_VERSION: u32 = 2;

/// One lint finding, located to a file and 1-based line. Built only by
/// [`crate::corpus::Unit::finding`]. Every psa-verify finding gates CI, so
/// the report writes a constant `error` severity for each.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    /// Stable lint id (`nondet-taint`, `panic-reach`, ...).
    pub lint: &'static str,
    /// Path as displayed — relative to the workspace root when possible.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// The token pattern (or analysis fact) that fired the lint.
    pub needle: String,
    /// The lint's explanation of why the construct is banned.
    pub message: &'static str,
    /// The offending source line, trimmed.
    pub snippet: String,
}

/// Render violations as compiler-style human diagnostics.
pub fn human(violations: &[Violation]) -> String {
    let mut out = String::new();
    for v in violations {
        out.push_str(&format!(
            "error[{}]: {}\n  --> {}:{} (found `{}`)\n   | {}\n",
            v.lint, v.message, v.file, v.line, v.needle, v.snippet
        ));
    }
    out
}

/// One-line run summary for the end of the human report.
pub fn summary(files_scanned: usize, violations: &[Violation]) -> String {
    if violations.is_empty() {
        format!("psa-verify: {files_scanned} files scanned, 0 violations")
    } else {
        format!(
            "psa-verify: {files_scanned} files scanned, {} violation(s) in {} file(s)",
            violations.len(),
            distinct_files(violations)
        )
    }
}

fn distinct_files(violations: &[Violation]) -> usize {
    let mut files: Vec<&str> = violations.iter().map(|v| v.file.as_str()).collect();
    files.sort_unstable();
    files.dedup();
    files.len()
}

/// Render the full run as a JSON object:
/// `{"tool":"psa-verify","schema_version":2,"files_scanned":N,"ok":bool,
///   "violations":[{"lint":..,"file":..,"line":..,"severity":..,...}]}`.
pub fn json(files_scanned: usize, violations: &[Violation]) -> String {
    let mut out = String::from("{\"tool\":\"psa-verify\",");
    out.push_str(&format!("\"schema_version\":{SCHEMA_VERSION},"));
    out.push_str(&format!("\"files_scanned\":{files_scanned},"));
    out.push_str(&format!("\"ok\":{},", violations.is_empty()));
    out.push_str("\"violations\":[");
    for (i, v) in violations.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"lint\":{},\"file\":{},\"line\":{},\"severity\":\"error\",\"needle\":{},\"message\":{},\"snippet\":{}}}",
            escape(v.lint),
            escape(&v.file),
            v.line,
            escape(&v.needle),
            escape(v.message),
            escape(&v.snippet)
        ));
    }
    out.push_str("]}");
    out
}

/// Minimal JSON string escaping (quotes, backslash, control chars).
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v() -> Violation {
        Violation {
            lint: "nondet-taint",
            file: "crates/x/src/a.rs".into(),
            line: 7,
            needle: "Instant::now".into(),
            message: "no \"wall\" clock",
            snippet: "let t = Instant::now();".into(),
        }
    }

    #[test]
    fn human_has_file_line_and_lint() {
        let text = human(&[v()]);
        assert!(text.contains("crates/x/src/a.rs:7"));
        assert!(text.contains("error[nondet-taint]"));
    }

    #[test]
    fn json_escapes_quotes_and_reports_ok() {
        let j = json(3, &[v()]);
        assert!(j.contains("\"ok\":false"));
        assert!(j.contains("no \\\"wall\\\" clock"));
        assert!(j.contains("\"files_scanned\":3"));
        assert!(j.contains("\"schema_version\":2"));
        assert!(j.contains("\"severity\":\"error\""));
        let clean = json(3, &[]);
        assert!(clean.contains("\"ok\":true"));
        assert!(clean.ends_with("\"violations\":[]}"));
    }

    #[test]
    fn summary_counts_distinct_files() {
        let mut b = v();
        b.line = 9;
        let s = summary(10, &[v(), b]);
        assert!(s.contains("2 violation(s) in 1 file(s)"), "{s}");
    }
}
