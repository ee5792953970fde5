//! The lint registry: token-pattern lints, the analysis lints layered on
//! the call graph, and the per-file pattern runner.
//!
//! Token lints match *token sequences* from [`crate::lex`], so
//! `BuildHashMapConfig` no longer matches `HashMap` and `unwrap_or_else`
//! never matches `unwrap` — the substring false-positive class of the v1
//! lexical scanner is structurally gone. The determinism lints' pattern
//! lists are also the taint pass's needles (`ast`), one list per
//! nondeterminism class. Analysis lints (`nondet-taint`,
//! `panic-reach`, `index-panic`, `protocol-order`, `stale-allow`) have no
//! patterns here; they are produced by the `taint` / `panics` / `proto` /
//! `audit` passes and registered in [`ALL_LINTS`] so the selftest coverage
//! rule ("every lint id has a fixture") applies to them too.

use crate::audit::Raw;
use crate::corpus::Unit;

/// One registered lint.
pub struct LintDef {
    /// Stable id used in reports and CI filters.
    pub id: &'static str,
    /// Name accepted by `// psa-verify: allow(<key>)`.
    pub allow_key: &'static str,
    /// Token-sequence patterns that fire the lint (empty for analysis
    /// lints, which are produced by the graph passes instead).
    pub patterns: &'static [&'static [&'static str]],
    /// Human explanation of why the construct is banned.
    pub message: &'static str,
    /// Whether `#[cfg(test)]` / `#[test]` bodies are exempt.
    pub skip_tests: bool,
}

/// Unordered collections make iteration order depend on the hasher seed,
/// which breaks bit-reproducible runs.
pub const UNORDERED: LintDef = LintDef {
    id: "unordered-collections",
    allow_key: "unordered",
    patterns: &[&["HashMap"], &["HashSet"], &["RandomState"]],
    message: "unordered collection in a simulation crate; use BTreeMap/BTreeSet \
              or annotate `// psa-verify: allow(unordered)` with a reason",
    skip_tests: false,
};

/// Wall-clock reads and sleeps inside virtual-time code couple results to
/// host timing.
pub const WALL_CLOCK: LintDef = LintDef {
    id: "wall-clock",
    allow_key: "wall-clock",
    patterns: &[
        &["Instant", "::", "now"],
        &["SystemTime"],
        &["thread", "::", "sleep"],
        &["sleep", "("],
    ],
    message: "wall-clock/sleep in virtual-time code; virtual time must come from \
              the cost model, and injected fault delays must be charged as \
              virtual ticks (netsim fault plans), or annotate \
              `// psa-verify: allow(wall-clock)`",
    skip_tests: false,
};

/// A bare blocking `recv()` in a protocol loop hangs the whole executor
/// when a peer dies silently; bounded receives turn a lost peer into a
/// typed `TransportError::Timeout` the run report can explain.
pub const UNBOUNDED_RECV: LintDef = LintDef {
    id: "no-unbounded-recv",
    allow_key: "unbounded-recv",
    patterns: &[&[".", "recv", "("]],
    message: "unbounded blocking receive in a protocol module; use \
              `recv_deadline` so a lost peer surfaces as a typed \
              TransportError::Timeout with rank/frame context, or annotate \
              `// psa-verify: allow(unbounded-recv)` with a reason",
    skip_tests: true,
};

/// Ambient RNG bypasses the seeded `psa-math::rng` streams the tables
/// regenerate from.
pub const AMBIENT_RNG: LintDef = LintDef {
    id: "ambient-rng",
    allow_key: "ambient-rng",
    patterns: &[
        &["thread_rng"],
        &["rand", "::", "random"],
        &["from_entropy"],
        &["OsRng"],
        &["getrandom"],
    ],
    message: "ambient RNG; all randomness must flow through seeded psa_math::Rng64 \
              streams",
    skip_tests: false,
};

/// Message-handling code must return typed errors, never panic: a poisoned
/// rank thread deadlocks the executor instead of failing the run report.
pub const PROTOCOL_PANIC: LintDef = LintDef {
    id: "protocol-panic",
    allow_key: "panic",
    patterns: &[
        &[".", "unwrap", "(", ")"],
        &[".", "expect", "("],
        &["panic", "!"],
        &["unreachable", "!"],
        &["todo", "!"],
        &["unimplemented", "!"],
    ],
    message: "panic path in a protocol module; return a typed ProtocolError/\
              TransportError to the executor instead",
    skip_tests: true,
};

/// Thread spawns outside the approved pool module make execution order —
/// and therefore RNG stream consumption — depend on the scheduler. All
/// parallel compute must flow through `psa_core::pool`, whose results come
/// back in submission order, so clients that fold them in that order (the
/// chunked kernel, the session pool) stay thread-count invariant.
pub const THREAD_CONFINEMENT: LintDef = LintDef {
    id: "thread-confinement",
    allow_key: "thread-spawn",
    patterns: &[&["thread", "::", "spawn"], &["thread", "::", "scope"]],
    message: "thread spawn in a simulation crate outside psa_core::pool; route \
              parallel compute through the ordered work pool (deterministic for \
              any thread count), or annotate `// psa-verify: allow(thread-spawn)` \
              with a reason",
    skip_tests: true,
};

// ---------------------------------------------------------------------------
// Analysis lints (call-graph passes; no token patterns).
// ---------------------------------------------------------------------------

/// Nondeterminism taint: an ambient source (wall clock, unordered
/// collection, ambient RNG, thread identity) inside a function reachable
/// from a phase entry point.
pub const NONDET_TAINT: LintDef = LintDef {
    id: "nondet-taint",
    allow_key: "nondet-taint",
    patterns: &[],
    message: "nondeterministic source reachable from a phase entry point; state \
              that feeds fingerprints must be a pure function of the seed — \
              route randomness through psa_math::Rng64, timing through the cost \
              model, and iteration through ordered collections",
    skip_tests: true,
};

/// Panic reachability: a panic-family construct inside a function reachable
/// from the protocol send/recv roots, found over the call graph.
pub const PANIC_REACH: LintDef = LintDef {
    id: "panic-reach",
    allow_key: "panic-reach",
    patterns: &[],
    message: "panic path reachable from a protocol root over the call graph; a \
              poisoned rank thread deadlocks its peers — return a typed error \
              up the call chain instead",
    skip_tests: true,
};

/// Indexing that can panic inside functions reachable from protocol roots.
pub const INDEX_PANIC: LintDef = LintDef {
    id: "index-panic",
    allow_key: "index-panic",
    patterns: &[],
    message: "slice/array indexing reachable from a protocol root; an \
              out-of-range index panics the rank thread — use get()/get_mut() \
              with a typed error, or annotate \
              `// psa-verify: allow(index-panic)` with the bounds invariant",
    skip_tests: true,
};

/// Figure-2 protocol conformance: the statically extracted send/recv
/// sequence of an executor role must match the six-phase state machine.
pub const PROTOCOL_ORDER: LintDef = LintDef {
    id: "protocol-order",
    allow_key: "protocol-order",
    patterns: &[],
    message: "executor send/recv sequence deviates from the Figure-2 six-phase \
              protocol state machine (see psa-verify's proto module for the \
              per-role spec)",
    skip_tests: true,
};

/// Suppression audit: an `// psa-verify: allow(...)` annotation that no
/// longer suppresses anything (or names an unknown lint) is an error, so
/// the escape-hatch inventory can only shrink.
pub const STALE_ALLOW: LintDef = LintDef {
    id: "stale-allow",
    allow_key: "stale-allow",
    patterns: &[],
    message: "stale `// psa-verify: allow(...)` annotation: it suppresses \
              nothing on this line or file — delete it (the escape-hatch \
              inventory may only shrink)",
    skip_tests: false,
};

pub const ALL_LINTS: &[&LintDef] = &[
    &UNORDERED,
    &WALL_CLOCK,
    &AMBIENT_RNG,
    &PROTOCOL_PANIC,
    &UNBOUNDED_RECV,
    &THREAD_CONFINEMENT,
    &NONDET_TAINT,
    &PANIC_REACH,
    &INDEX_PANIC,
    &PROTOCOL_ORDER,
    &STALE_ALLOW,
];

/// Look up a lint by id.
pub fn by_id(id: &str) -> Option<&'static LintDef> {
    ALL_LINTS.iter().copied().find(|l| l.id == id)
}

/// Is `key` a registered allow-key?
pub fn known_allow_key(key: &str) -> bool {
    ALL_LINTS.iter().any(|l| l.allow_key == key)
}

/// Run the token-pattern lints over unit `ui`. Returns *raw* findings —
/// allow-annotations are applied later by the suppression pass, which
/// also audits them.
pub fn run_lints(ui: usize, u: &Unit, lints: &[&'static LintDef]) -> Vec<Raw> {
    let toks = &u.lex.toks;
    let mut out = Vec::new();
    for &lint in lints {
        let mut seen_lines: Vec<usize> = Vec::new();
        for pattern in lint.patterns {
            for k in 0..toks.len() {
                if !pattern
                    .iter()
                    .enumerate()
                    .all(|(off, want)| toks.get(k + off).is_some_and(|t| t.text == *want))
                {
                    continue;
                }
                // One finding per (lint, line): overlapping patterns (e.g.
                // `thread::sleep` and `sleep(`) describe the same construct.
                let line = toks[k].line;
                if (lint.skip_tests && u.in_test(line)) || seen_lines.contains(&line) {
                    continue;
                }
                seen_lines.push(line);
                let v = u.finding(lint, line, pattern.concat());
                out.push(Raw { unit: ui, v, keys: vec![lint.allow_key] });
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::Violation;

    /// The lints' findings on `src` after the suppression audit.
    fn scan(src: &str, lints: &[&'static LintDef]) -> Vec<Violation> {
        let units = [Unit::parse("test.rs", src)];
        crate::audit::apply(&units, run_lints(0, &units[0], lints))
    }

    #[test]
    fn hashmap_fires_but_btreemap_does_not() {
        let v = scan(
            "use std::collections::HashMap;\nuse std::collections::BTreeMap;\n",
            &[&UNORDERED],
        );
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].line, 1);
        assert_eq!(v[0].lint, "unordered-collections");
    }

    #[test]
    fn identifier_containing_a_needle_does_not_fire() {
        // The v1 substring scanner tripped on all of these.
        let v = scan(
            "struct BuildHashMapConfig;\nlet my_thread_rng_label = 1;\nfn sleepy() {}\n",
            &[&UNORDERED, &AMBIENT_RNG, &WALL_CLOCK],
        );
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn string_and_comment_mentions_do_not_fire() {
        let v = scan(
            "// HashMap is banned\nlet s = \"HashMap\";\nlet t = r#\"Instant::now\"#;\n",
            &[&UNORDERED, &WALL_CLOCK],
        );
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn unwrap_or_else_is_not_unwrap() {
        let v = scan(
            "let x = y.unwrap_or_else(Vec::new);\nlet z = y.unwrap_or(0);\n",
            &[&PROTOCOL_PANIC],
        );
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn spaced_tokens_still_fire() {
        // Token matching sees through whitespace the substring scanner
        // required to be absent.
        let v = scan("let t = Instant :: now();\n", &[&WALL_CLOCK]);
        assert_eq!(v.len(), 1, "{v:?}");
    }

    #[test]
    fn panics_in_test_mods_are_exempt() {
        let src =
            "fn f() { x.unwrap(); }\n#[cfg(test)]\nmod tests {\n    fn g() { y.unwrap(); }\n}\n";
        let v = scan(src, &[&PROTOCOL_PANIC]);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].line, 1);
    }

    #[test]
    fn allow_annotations_suppress() {
        let src = "use a;\n// psa-verify: allow(wall-clock) timing loop\nlet t = Instant::now();\nlet u = Instant::now();\n";
        let v = scan(src, &[&WALL_CLOCK]);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].line, 4);
    }

    #[test]
    fn file_level_allow_suppresses_everywhere() {
        let src = "// psa-verify: allow(wall-clock) whole file measures real time\nuse std::time::Instant;\nfn f() { let t = Instant::now(); }\n";
        assert!(scan(src, &[&WALL_CLOCK]).is_empty());
    }

    #[test]
    fn bare_recv_fires_but_deadline_and_try_variants_do_not() {
        let v = scan(
            "let a = ep.recv(peer)?;\nlet b = ep.recv_deadline(peer, d)?;\nlet c = ep.try_recv(peer)?;\n",
            &[&UNBOUNDED_RECV],
        );
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].line, 1);
        assert_eq!(v[0].lint, "no-unbounded-recv");
    }

    #[test]
    fn recv_in_test_mods_is_exempt() {
        let src = "fn f(ep: &E) { ep.recv(0); }\n#[cfg(test)]\nmod tests {\n    fn g(ep: &E) { ep.recv(0); }\n}\n";
        let v = scan(src, &[&UNBOUNDED_RECV]);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].line, 1);
    }

    #[test]
    fn every_lint_id_resolves_and_analysis_lints_are_registered() {
        for l in ALL_LINTS {
            assert!(by_id(l.id).is_some());
        }
        assert!(by_id("no-such-lint").is_none());
        for id in ["nondet-taint", "panic-reach", "index-panic", "protocol-order", "stale-allow"] {
            assert!(by_id(id).is_some(), "analysis lint {id} must be registered");
            assert!(by_id(id).unwrap().patterns.is_empty());
        }
        assert!(known_allow_key("wall-clock"));
        assert!(!known_allow_key("bogus"));
    }
}
