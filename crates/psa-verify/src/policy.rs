//! Where the call-graph analyses look, by workspace-relative path
//! (normalised to `/` separators): the files whose functions are panic
//! roots, the phase entry points of the taint pass, the executor roles the
//! Figure-2 check binds, and what the workspace walk skips. What a path
//! names (collections, clocks, threads, receives, panics in the protocol
//! modules) clippy checks for the whole workspace instead (`clippy.toml`).

/// Directory names skipped entirely during the workspace walk.
pub const SKIP_DIRS: &[&str] = &["target", ".git", ".github", "fixtures"];

/// Path prefixes excluded from the workspace corpus. The checker's own
/// sources are full of *mentions* of the annotations and pragmas it
/// parses (`allow(<key>)` in rustdoc, role tables, fixture excerpts);
/// scanning itself would report every such mention as a stale annotation
/// or an unknown role. The checker is covered by its unit tests and the
/// fixture selftest instead.
pub const SKIP_PREFIXES: &[&str] = &["crates/psa-verify/"];

/// Roots of the panic-reachability analysis: every non-test function in
/// these files/dirs is a protocol (or report-surface) entry whose callees
/// must not panic. Beyond the protocol modules proper, the run-report and
/// trace accessors are roots because the executors call them from inside
/// the frame loop — an out-of-range rank there kills the run exactly like
/// a protocol panic would.
pub const PANIC_ROOTS: &[&str] = &[
    "crates/psa-runtime/src/msg.rs",
    "crates/psa-runtime/src/checkpoint.rs",
    "crates/netsim/src",
    "crates/psa-trace/src",
    "crates/psa-runtime/src/report.rs",
    "crates/psa-runtime/src/trace.rs",
    "crates/psa-desim/src/fabric.rs",
    "crates/psa-sessions/src/admission.rs",
    "crates/psa-sessions/src/session.rs",
];

/// Phase entry points of the taint analysis (matched by function name):
/// anything reachable from the six Figure-2 phases, the executor mains, the
/// role cores' transitions (`protocol/calculator.rs`, `protocol/manager.rs`
/// — entries in their own right, so the pass reaches them however a driver
/// is refactored), or the deterministic compute kernel must be a pure
/// function of the seed.
pub const PHASE_ENTRIES: &[&str] = &[
    "phase_creation",
    "phase_addition",
    "phase_calculus",
    "phase_exchange",
    "phase_loads",
    "phase_balance",
    "phase_ship",
    "execute_orders",
    "calculus",
    "stage_exchange",
    "donate",
    "install_domains",
    "create",
    "decide_round",
    "apply_cut",
    "collapse_dead",
    "calculator_main",
    "manager_main",
    "image_generator_main",
    "run_frames",
    "run_sequential",
    "run_actions",
];

/// Workspace protocol-role bindings: `(file, role, entry fn)` checked by
/// the Figure-2 conformance pass (fixtures bind via the `protocol-role`
/// pragma instead).
pub const ROLE_BINDINGS: &[(&str, &str, &str)] = &[
    ("crates/psa-runtime/src/protocol/spmd.rs", "calculator", "calculator_main"),
    ("crates/psa-runtime/src/protocol/spmd.rs", "manager", "manager_main"),
    ("crates/psa-runtime/src/protocol/spmd.rs", "image-generator", "image_generator_main"),
    ("crates/psa-runtime/src/protocol/engine.rs", "virtual-engine", "run_frames"),
];

/// Units that take part in the call-graph analyses: crate sources, minus
/// psa-verify itself (the checker's own parser tables and fixtures are not
/// simulation code).
pub fn graph_eligible(rel: &str) -> bool {
    rel.starts_with("crates/") && rel.contains("/src/") && !rel.starts_with("crates/psa-verify/")
}

pub fn under(rel: &str, root: &str) -> bool {
    rel == root || rel.starts_with(&format!("{root}/"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefix_match_is_path_aware() {
        // `crates/netsim/src-extra` must not inherit netsim's panic roots
        assert!(under("crates/netsim/src/thread_net.rs", "crates/netsim/src"));
        assert!(!under("crates/netsim/src-extra/x.rs", "crates/netsim/src"));
    }

    #[test]
    fn protocol_modules_also_ban_panics() {
        // Clippy denies every panic lint inside the protocol modules, and
        // the panic-reach pass starts from them for what they call.
        for file in ["crates/psa-runtime/src/msg.rs", "crates/netsim/src/lib.rs"] {
            let src = std::fs::read_to_string(crate::workspace_root().join(file)).unwrap();
            let deny = src.split("#![deny(").nth(1).and_then(|d| d.split(")]").next());
            let denied: Vec<&str> = deny.unwrap_or_default().split(',').map(str::trim).collect();
            for lint in
                ["unwrap_used", "expect_used", "panic", "unreachable", "todo", "unimplemented"]
            {
                let lint = format!("clippy::{lint}");
                assert!(denied.contains(&lint.as_str()), "{file} must deny {lint}");
            }
            assert!(PANIC_ROOTS.iter().any(|r| file.starts_with(r)), "{file} is no panic root");
        }
    }

    #[test]
    fn graph_eligibility_covers_crate_sources_but_not_the_checker() {
        assert!(graph_eligible("crates/psa-core/src/kernel.rs"));
        assert!(graph_eligible("crates/netsim/src/virtual_net.rs"));
        assert!(!graph_eligible("crates/psa-verify/src/main.rs"));
        assert!(!graph_eligible("crates/psa-core/tests/determinism.rs"));
        assert!(!graph_eligible("examples/snow.rs"));
    }

    #[test]
    fn role_bindings_and_panic_roots_are_well_formed() {
        for (file, role, _) in ROLE_BINDINGS {
            assert!(crate::proto::spec_for_role(role).is_some(), "unknown role {role}");
            assert!(graph_eligible(file), "{file} must be analyzable");
        }
        for root in PANIC_ROOTS {
            assert!(root.starts_with("crates/"), "{root}");
        }
    }

    #[test]
    fn checkpoint_codec_is_a_panic_root() {
        // The snapshot codec runs on the recovery path: a decode panic on a
        // corrupt or truncated checkpoint would kill the rollback at the
        // exact moment it is supposed to save the run. Every decode failure
        // must come back as a typed `CodecError` instead.
        assert!(PANIC_ROOTS.contains(&"crates/psa-runtime/src/checkpoint.rs"));
    }
}
