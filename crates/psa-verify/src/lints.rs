//! The lint registry: the analyses psa-verify runs over the call graph.
//!
//! What a path names (an unordered collection, the host clock, a thread
//! spawn or a blocking receive anywhere in the workspace, a panic in a
//! protocol module) the compiler checks: clippy's `disallowed_types` and
//! `disallowed_methods` from the workspace `clippy.toml`, and the panic
//! lints `psa-runtime`'s `msg.rs` and `netsim` deny. What is left here
//! needs the whole call graph or the protocol's order: `nondet-taint`,
//! `panic-reach`, `index-panic`, `protocol-order`, and `stale-allow`, the
//! audit of this tool's own `// psa-verify: allow(<id>)` pragmas. A pragma
//! names a lint by its id. The selftest's coverage rule ("every lint id has
//! a fixture") applies to each.

/// One registered lint.
pub struct LintDef {
    /// Stable id used in reports, CI filters and `allow(<id>)` pragmas.
    pub id: &'static str,
    /// Human explanation of why the construct is banned.
    pub message: &'static str,
}

/// Nondeterminism taint: an ambient source (wall clock, unordered
/// collection, ambient RNG, thread identity) inside a function reachable
/// from a phase entry point.
pub const NONDET_TAINT: LintDef = LintDef {
    id: "nondet-taint",
    message: "nondeterministic source reachable from a phase entry point; state \
              that feeds fingerprints must be a pure function of the seed — \
              route randomness through psa_math::Rng64, timing through the cost \
              model, and iteration through ordered collections",
};

/// Panic reachability: a panic-family construct inside a function reachable
/// from the protocol send/recv roots, found over the call graph.
pub const PANIC_REACH: LintDef = LintDef {
    id: "panic-reach",
    message: "panic path reachable from a protocol root over the call graph; a \
              poisoned rank thread deadlocks its peers — return a typed error \
              up the call chain instead",
};

/// Indexing that can panic inside functions reachable from protocol roots.
pub const INDEX_PANIC: LintDef = LintDef {
    id: "index-panic",
    message: "slice/array indexing reachable from a protocol root; an \
              out-of-range index panics the rank thread — use get()/get_mut() \
              with a typed error, or annotate \
              `// psa-verify: allow(index-panic)` with the bounds invariant",
};

/// Figure-2 protocol conformance: the statically extracted send/recv
/// sequence of an executor role must match the six-phase state machine.
pub const PROTOCOL_ORDER: LintDef = LintDef {
    id: "protocol-order",
    message: "executor send/recv sequence deviates from the Figure-2 six-phase \
              protocol state machine (see psa-verify's proto module for the \
              per-role spec)",
};

/// Suppression audit: an `// psa-verify: allow(...)` annotation that no
/// longer suppresses anything (or names an unknown lint) is an error, so
/// the escape-hatch inventory can only shrink.
pub const STALE_ALLOW: LintDef = LintDef {
    id: "stale-allow",
    message: "stale `// psa-verify: allow(...)` annotation: it suppresses \
              nothing on this line or file — delete it (the escape-hatch \
              inventory may only shrink)",
};

pub const ALL_LINTS: &[&LintDef] =
    &[&NONDET_TAINT, &PANIC_REACH, &INDEX_PANIC, &PROTOCOL_ORDER, &STALE_ALLOW];

/// Look up a lint by id.
pub fn by_id(id: &str) -> Option<&'static LintDef> {
    ALL_LINTS.iter().copied().find(|l| l.id == id)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::Unit;
    use crate::report::Violation;

    /// Every finding `check` reports on the one file `src`.
    fn scan(src: &str) -> Vec<Violation> {
        crate::analyze(&[Unit::parse("test.rs", src)], false)
    }

    #[test]
    fn hashmap_fires_but_btreemap_does_not() {
        let v = scan(
            "fn phase_calculus() {\n    let m: HashMap<u8, u8> = f();\n    let b: BTreeMap<u8, u8> = g();\n}\n",
        );
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].line, 2);
        assert_eq!(v[0].lint, "nondet-taint");
    }

    #[test]
    fn identifier_containing_a_needle_does_not_fire() {
        // The v1 substring scanner tripped on all of these.
        let v = scan(
            "fn phase_calculus() {\n    let c = BuildHashMapConfig;\n    let my_thread_rng_label = 1;\n    sleepy();\n}\nfn sleepy() {}\n",
        );
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn string_and_comment_mentions_do_not_fire() {
        let v = scan(
            "fn phase_calculus() {\n    // HashMap is banned\n    let s = \"HashMap\";\n    let t = r#\"Instant::now\"#;\n}\n",
        );
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn unwrap_or_else_is_not_unwrap() {
        let v = scan(
            "// psa-verify: panic-entry(handle)\nfn handle() {\n    let x = y.unwrap_or_else(Vec::new);\n    let z = y.unwrap_or(0);\n}\n",
        );
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn spaced_tokens_still_fire() {
        // Token matching sees through whitespace the substring scanner
        // required to be absent.
        let v = scan("fn phase_calculus() { let t = Instant :: now(); }\n");
        assert_eq!(v.len(), 1, "{v:?}");
    }

    #[test]
    fn panics_in_test_mods_are_exempt() {
        let src = "// psa-verify: panic-entry(f)\nfn f() { x.unwrap(); g(); }\n#[cfg(test)]\nmod tests {\n    fn g() { y.unwrap(); }\n}\n";
        let v = scan(src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].line, 2);
    }

    #[test]
    fn allow_annotations_suppress() {
        let src = "fn phase_calculus() {\n    // psa-verify: allow(nondet-taint) timing loop\n    let t = Instant::now();\n    let u = Instant::now();\n}\n";
        let v = scan(src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].line, 4);
    }

    #[test]
    fn file_level_allow_suppresses_everywhere() {
        let src = "// psa-verify: allow(nondet-taint) whole file measures real time\nfn phase_calculus() { let t = Instant::now(); }\n";
        assert!(scan(src).is_empty());
    }

    #[test]
    fn every_lint_id_resolves_and_analysis_lints_are_registered() {
        for l in ALL_LINTS {
            assert!(by_id(l.id).is_some());
        }
        assert!(by_id("no-such-lint").is_none());
        for id in ["nondet-taint", "panic-reach", "index-panic", "protocol-order", "stale-allow"] {
            assert!(by_id(id).is_some(), "analysis lint {id} must be registered");
        }
        // Clippy checks the host clock: a pragma naming `wall-clock` is stale.
        assert!(by_id("wall-clock").is_none());
    }
}
