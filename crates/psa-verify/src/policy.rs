//! Which lints apply where.
//!
//! The mapping is by workspace-relative path, normalised to `/` separators:
//!
//! * **simulation crates** (`psa-core`, `psa-runtime`, `netsim`,
//!   `cluster-sim`) carry the determinism lints — unordered collections,
//!   wall clock, ambient RNG — because their per-frame behaviour must be a
//!   pure function of the seed;
//! * **protocol modules** (`psa-runtime/src/msg.rs` and everything under
//!   `netsim/src/`) additionally forbid panic paths: a panicking rank
//!   thread deadlocks its peers instead of failing the run report;
//! * **blocking transports** (the threaded executor and the thread/fault
//!   fabrics) additionally forbid bare `.recv(` calls: a peer that dies
//!   silently must surface as a typed `Timeout`, never as a hang;
//! * **everything else** (render, api, workloads, benches, binaries) still
//!   gets the ambient-RNG lint — a stray `thread_rng` anywhere feeds
//!   nondeterminism back into workload setup — but may freely use hash
//!   maps and wall clocks.

use crate::lints::{
    LintDef, AMBIENT_RNG, PROTOCOL_PANIC, THREAD_CONFINEMENT, UNBOUNDED_RECV, UNORDERED, WALL_CLOCK,
};

/// Source roots whose iteration order / timing must be deterministic.
pub const SIM_ROOTS: &[&str] = &[
    "crates/psa-core/src",
    "crates/psa-core/tests",
    "crates/psa-runtime/src",
    "crates/psa-chaos/src",
    "crates/psa-trace/src",
    "crates/psa-desim/src",
    "crates/psa-sessions/src",
    "crates/netsim/src",
    "crates/cluster-sim/src",
];

/// Message-handling code that must return typed errors instead of panicking.
pub const PROTOCOL_ROOTS: &[&str] = &["crates/psa-runtime/src/msg.rs", "crates/netsim/src"];

/// Code that receives over *blocking* channels — the threaded executor's
/// role mains (`protocol/spmd.rs`) and the fabrics under them. Only here
/// is a bare `.recv(` a hang risk; the event fabric's `recv` is
/// non-blocking and stays out of this list.
pub const BLOCKING_ROOTS: &[&str] = &[
    "crates/psa-runtime/src/protocol/spmd.rs",
    "crates/netsim/src/thread_net.rs",
    "crates/netsim/src/fault.rs",
];

/// The one module allowed to spawn compute threads: the ordered work pool,
/// which hands results back in submission order, so a client that folds
/// them in that order (the chunked kernel, the session pool) is
/// byte-identical for any thread count.
pub const POOL_MODULE: &str = "crates/psa-core/src/pool.rs";

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

/// The lint set for one workspace-relative `.rs` path.
pub fn lints_for(rel: &str) -> Vec<&'static LintDef> {
    let mut set: Vec<&'static LintDef> = vec![&AMBIENT_RNG];
    if SIM_ROOTS.iter().any(|r| under(rel, r)) {
        set.push(&UNORDERED);
        set.push(&WALL_CLOCK);
        if rel != POOL_MODULE {
            set.push(&THREAD_CONFINEMENT);
        }
    }
    if PROTOCOL_ROOTS.iter().any(|r| under(rel, r)) {
        set.push(&PROTOCOL_PANIC);
    }
    if BLOCKING_ROOTS.iter().any(|r| under(rel, r)) {
        set.push(&UNBOUNDED_RECV);
    }
    set
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(rel: &str) -> Vec<&'static str> {
        lints_for(rel).iter().map(|l| l.id).collect()
    }

    #[test]
    fn sim_crates_get_determinism_lints() {
        let got = ids("crates/psa-runtime/src/threaded.rs");
        assert!(got.contains(&"unordered-collections"));
        assert!(got.contains(&"wall-clock"));
        assert!(got.contains(&"ambient-rng"));
        assert!(!got.contains(&"protocol-panic"));
    }

    #[test]
    fn protocol_modules_also_ban_panics() {
        assert!(ids("crates/psa-runtime/src/msg.rs").contains(&"protocol-panic"));
        assert!(ids("crates/netsim/src/thread_net.rs").contains(&"protocol-panic"));
        assert!(ids("crates/netsim/src/virtual_net.rs").contains(&"protocol-panic"));
    }

    #[test]
    fn other_crates_only_get_ambient_rng() {
        assert_eq!(ids("crates/psa-render/src/raster.rs"), vec!["ambient-rng"]);
        assert_eq!(ids("examples/snow.rs"), vec!["ambient-rng"]);
    }

    #[test]
    fn prefix_match_is_path_aware() {
        // `crates/netsim/src-extra` must not inherit netsim's protocol rules
        assert!(!ids("crates/netsim/src-extra/x.rs").contains(&"protocol-panic"));
    }

    #[test]
    fn blocking_transports_ban_bare_recv() {
        // Every blocking receive of the threaded executor lives in the
        // SPMD driver; `threaded.rs` only builds and joins the roles.
        assert!(ids("crates/psa-runtime/src/protocol/spmd.rs").contains(&"no-unbounded-recv"));
        assert!(!ids("crates/psa-runtime/src/threaded.rs").contains(&"no-unbounded-recv"));
        assert!(ids("crates/netsim/src/thread_net.rs").contains(&"no-unbounded-recv"));
        assert!(ids("crates/netsim/src/fault.rs").contains(&"no-unbounded-recv"));
        // The event fabric's recv is non-blocking: the fabric and the
        // protocol engine must be free to call it bare.
        assert!(!ids("crates/psa-desim/src/fabric.rs").contains(&"no-unbounded-recv"));
        assert!(!ids("crates/psa-runtime/src/protocol/engine.rs").contains(&"no-unbounded-recv"));
    }

    #[test]
    fn thread_confinement_spares_only_the_pool() {
        assert!(!ids(POOL_MODULE).contains(&"thread-confinement"));
        // The pool's two clients run their parallel work through it.
        assert!(ids("crates/psa-core/src/kernel.rs").contains(&"thread-confinement"));
        assert!(ids("crates/psa-sessions/src/manager.rs").contains(&"thread-confinement"));
        assert!(ids("crates/psa-core/src/subdomain.rs").contains(&"thread-confinement"));
        assert!(ids("crates/psa-runtime/src/threaded.rs").contains(&"thread-confinement"));
        assert!(ids("crates/netsim/src/thread_net.rs").contains(&"thread-confinement"));
        // Non-sim crates may thread freely (e.g. render workers).
        assert!(!ids("crates/psa-render/src/raster.rs").contains(&"thread-confinement"));
    }

    #[test]
    fn chaos_crate_is_a_sim_root() {
        let got = ids("crates/psa-chaos/src/matrix.rs");
        assert!(got.contains(&"unordered-collections"));
        assert!(got.contains(&"wall-clock"));
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
    fn desim_crate_is_a_sim_root() {
        // The fabric's link map IS the delivery order the sparse exchange
        // sees: a HashMap drain, a host clock, or a stray thread in
        // psa-desim makes a run depend on the host.
        for file in [
            "crates/psa-desim/src/queue.rs",
            "crates/psa-desim/src/fabric.rs",
            "crates/psa-desim/src/exec.rs",
        ] {
            let got = ids(file);
            assert!(got.contains(&"unordered-collections"), "{file}");
            assert!(got.contains(&"wall-clock"), "{file}");
            assert!(got.contains(&"thread-confinement"), "{file}");
        }
        // And the fabric is a panic root: every entry the engine calls
        // mid-frame must come back as a typed error. The heap in queue.rs
        // is off the protocol path (only the benchmark times it).
        assert!(PANIC_ROOTS.contains(&"crates/psa-desim/src/fabric.rs"));
        assert!(!PANIC_ROOTS.contains(&"crates/psa-desim/src/queue.rs"));
    }

    #[test]
    fn sessions_crate_is_a_sim_root() {
        // The pool multiplexes runs whose fingerprints must stay
        // byte-identical to solo runs: a HashMap in the tenant tables, a
        // wall clock in the lane arithmetic, or a stray thread would make
        // scheduling order (and with it latency numbers) host-dependent.
        for file in ["crates/psa-sessions/src/manager.rs", "crates/psa-sessions/src/transcript.rs"]
        {
            let got = ids(file);
            assert!(got.contains(&"unordered-collections"), "{file}");
            assert!(got.contains(&"wall-clock"), "{file}");
            assert!(got.contains(&"thread-confinement"), "{file}");
        }
        // Admission decisions, the in-flight count, and seed derivation
        // are called from inside the dispatch loop: a panic there takes
        // the whole pool down, so they are panic roots like the fabric.
        for root in ["crates/psa-sessions/src/admission.rs", "crates/psa-sessions/src/session.rs"] {
            assert!(PANIC_ROOTS.contains(&root), "{root} must be a panic root");
        }
    }

    #[test]
    fn checkpoint_codec_is_a_panic_root() {
        // The snapshot codec runs on the recovery path: a decode panic on a
        // corrupt or truncated checkpoint would kill the rollback at the
        // exact moment it is supposed to save the run. Every decode failure
        // must come back as a typed `CodecError` instead.
        assert!(PANIC_ROOTS.contains(&"crates/psa-runtime/src/checkpoint.rs"));
        // And as psa-runtime source it keeps the determinism lints too —
        // snapshots are fingerprinted, so encode order must be stable.
        let got = ids("crates/psa-runtime/src/checkpoint.rs");
        assert!(got.contains(&"unordered-collections"));
        assert!(got.contains(&"wall-clock"));
    }

    #[test]
    fn trace_crate_is_a_sim_root() {
        // The recorder runs inside the executors' frame loop; a HashMap or
        // an unannotated Instant there would break the quietness guarantee.
        let got = ids("crates/psa-trace/src/recorder.rs");
        assert!(got.contains(&"unordered-collections"));
        assert!(got.contains(&"wall-clock"));
        assert!(got.contains(&"ambient-rng"));
    }
}
