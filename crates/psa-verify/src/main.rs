//! `psa-verify` — workspace determinism & protocol-safety analysis pass.
//!
//! Clippy checks what a path names, for the whole workspace: the
//! `clippy.toml` at the root refuses hash-ordered collections, the host
//! clock, thread spawns and blocking receives, and the protocol modules
//! deny panics. What it cannot see is the call graph: that a phase entry
//! reaches a host-clock read through a real-time helper, that an
//! `unwrap()` three calls below a message handler deadlocks the executor,
//! or that a new executor sends `Balance` traffic before its `Load`
//! report. This tool lexes every source file once into tokens, test scope
//! and annotations (`lex`), extracts a function-level AST from the tokens
//! (`ast`), links the functions into a conservative call graph (`graph`),
//! and runs four analyses on it:
//!
//! * nondeterminism taint from ambient sources into the phase entry points
//!   (`taint`);
//! * panic reachability from the protocol send/recv roots (`panics`);
//! * Figure-2 protocol conformance of each executor's extracted send/recv
//!   sequence (`proto`);
//! * a suppression audit that turns dead `allow(...)` annotations into
//!   errors (`audit`).
//!
//! Usage:
//!
//! ```text
//! cargo run -p psa-verify -- check            # analyze the whole workspace
//! cargo run -p psa-verify -- check --json     # same, JSON report on stdout
//! cargo run -p psa-verify -- check PATH...    # analyze specific files/dirs
//!                                             # (every file joins the graph
//!                                             # — used on the fixture corpus)
//! cargo run -p psa-verify -- selftest         # every lint must catch its
//!                                             # fixture; good fixtures must
//!                                             # pass clean
//! ```
//!
//! Exit codes: 0 clean, 1 violations found (or selftest failure), 2 usage
//! or I/O error.

mod ast;
mod audit;
mod corpus;
mod graph;
mod lex;
mod lints;
mod panics;
mod policy;
mod proto;
mod report;
mod taint;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use audit::Raw;
use corpus::Unit;
use graph::CallGraph;
use lints::{ALL_LINTS, PROTOCOL_ORDER};
use report::Violation;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("check") => {
            let mut json = false;
            let mut paths = Vec::new();
            for a in &args[1..] {
                match a.as_str() {
                    "--json" => json = true,
                    flag if flag.starts_with('-') => {
                        eprintln!("psa-verify: unknown flag `{flag}`");
                        return ExitCode::from(2);
                    }
                    p => paths.push(PathBuf::from(p)),
                }
            }
            run_check(&paths, json)
        }
        Some("selftest") => run_selftest(),
        _ => {
            eprintln!("usage: psa-verify <check [--json] [PATH...] | selftest>");
            ExitCode::from(2)
        }
    }
}

/// The workspace root: `CARGO_MANIFEST_DIR` is `crates/psa-verify`, two up.
fn workspace_root() -> PathBuf {
    let manifest = std::env::var("CARGO_MANIFEST_DIR")
        .unwrap_or_else(|_| env!("CARGO_MANIFEST_DIR").to_string());
    Path::new(&manifest).join("../..").canonicalize().unwrap_or_else(|_| PathBuf::from("."))
}

fn run_check(paths: &[PathBuf], json: bool) -> ExitCode {
    let units = match load(paths) {
        Ok(units) => units,
        Err(code) => return code,
    };
    let violations = analyze(&units, paths.is_empty());

    if json {
        println!("{}", report::json(units.len(), &violations));
    } else {
        print!("{}", report::human(&violations));
        println!("{}", report::summary(units.len(), &violations));
    }
    if violations.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Parse the `.rs` files under `paths` (the workspace when empty) into
/// units named by their workspace-relative path.
fn load(paths: &[PathBuf]) -> Result<Vec<Unit>, ExitCode> {
    let workspace_mode = paths.is_empty();
    let root = workspace_root();
    let files = if workspace_mode {
        collect_rs(&root, true)
    } else {
        let mut out = Vec::new();
        for p in paths {
            if p.is_dir() {
                out.extend(collect_rs(p, false));
            } else if p.extension().is_some_and(|e| e == "rs") {
                out.push(p.clone());
            } else {
                eprintln!("psa-verify: `{}` is not a .rs file or directory", p.display());
                return Err(ExitCode::from(2));
            }
        }
        out
    };

    let mut units = Vec::new();
    for path in &files {
        let rel = display_path(path, &root);
        if workspace_mode && policy::SKIP_PREFIXES.iter().any(|p| rel.starts_with(p)) {
            continue;
        }
        let Ok(src) = std::fs::read_to_string(path) else {
            eprintln!("psa-verify: cannot read `{}`", path.display());
            return Err(ExitCode::from(2));
        };
        units.push(Unit::parse(&rel, &src));
    }
    Ok(units)
}

/// The whole pipeline over one corpus: call-graph analyses, protocol
/// conformance, then the central suppression pass + audit. In workspace
/// mode graph eligibility and the role bindings follow `policy`; in
/// path/fixture mode every unit joins the graph (fixtures opt into roots
/// via pragmas).
fn analyze(units: &[Unit], workspace_mode: bool) -> Vec<Violation> {
    let eligible: Vec<bool> =
        units.iter().map(|u| !workspace_mode || policy::graph_eligible(&u.rel)).collect();
    let views: Vec<(&str, &[ast::FnInfo])> = units
        .iter()
        .enumerate()
        .map(|(i, u)| (u.rel.as_str(), if eligible[i] { u.fns.as_slice() } else { &[] }))
        .collect();
    let graph = CallGraph::build(&views);

    let mut raws: Vec<Raw> = taint::run(units, &graph, &eligible, policy::PHASE_ENTRIES);
    raws.extend(panics::run(units, &graph, &eligible));

    for (ui, u) in units.iter().enumerate() {
        let mut roles: Vec<(String, String)> = u.lex.roles.clone();
        if workspace_mode {
            for (file, role, entry) in policy::ROLE_BINDINGS {
                if u.rel == *file {
                    roles.push((role.to_string(), entry.to_string()));
                }
            }
        }
        for (role, entry) in &roles {
            let found = match proto::spec_for_role(role) {
                None => vec![(0, format!("unknown protocol role `{role}`"))],
                Some(spec) => {
                    let entry_line =
                        u.fns.iter().find(|f| f.name == *entry && !f.is_test).map_or(0, |f| f.line);
                    let events = proto::extract_events(&u.fns, entry);
                    proto::check_role(role, entry, entry_line, spec, &events)
                }
            };
            for (line, needle) in found {
                let v = u.finding(&PROTOCOL_ORDER, line, needle);
                raws.push(Raw { unit: ui, v });
            }
        }
    }

    audit::apply(units, raws)
}

/// Recursively collect `.rs` files. In workspace mode, directories named in
/// [`policy::SKIP_DIRS`] (build output, VCS, fixture corpora) are pruned.
fn collect_rs(dir: &Path, workspace_mode: bool) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let Ok(entries) = std::fs::read_dir(dir) else {
        return out;
    };
    let mut entries: Vec<_> = entries.flatten().map(|e| e.path()).collect();
    entries.sort(); // deterministic walk order ⇒ deterministic report order
    for path in entries {
        if path.is_dir() {
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if workspace_mode && policy::SKIP_DIRS.contains(&name) {
                continue;
            }
            out.extend(collect_rs(&path, workspace_mode));
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    out
}

/// Path relative to the workspace root with `/` separators, for stable
/// diagnostics across platforms and invocation directories.
fn display_path(path: &Path, root: &Path) -> String {
    let rel = path
        .canonicalize()
        .ok()
        .and_then(|c| c.strip_prefix(root).map(Path::to_path_buf).ok())
        .unwrap_or_else(|| path.to_path_buf());
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy().into_owned())
        .collect::<Vec<_>>()
        .join("/")
}

// ---------------------------------------------------------------------------
// Selftest: the bad-fixture corpus must trip exactly its declared lints.
// ---------------------------------------------------------------------------

/// Run the fixture corpus; returns human-readable failures (empty = pass).
/// Each fixture is analyzed as its own single-file corpus, so the call
/// graph never links one fixture's functions to another's.
fn selftest_failures() -> Vec<String> {
    let fixtures = Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures");
    let files = collect_rs(&fixtures, false);
    let mut failures = Vec::new();
    if files.is_empty() {
        failures.push(format!("no fixtures found under {}", fixtures.display()));
        return failures;
    }

    let mut covered: Vec<String> = Vec::new();
    for path in &files {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("").to_string();
        let Ok(src) = std::fs::read_to_string(path) else {
            failures.push(format!("{name}: unreadable"));
            continue;
        };
        // Declared expectations: `// psa-verify-fixture: expect(<lint-id>)`.
        let expected: Vec<&str> =
            src.lines().filter_map(|l| lex::tag(l, "psa-verify-fixture: expect(")).collect();
        let mut fired: Vec<&str> =
            analyze(&[Unit::parse(&name, &src)], false).into_iter().map(|v| v.lint).collect();
        fired.sort();
        fired.dedup();
        if name.starts_with("good_") {
            if !expected.is_empty() {
                failures.push(format!("{name}: good fixture declares expectations"));
            }
            if !fired.is_empty() {
                failures.push(format!("{name}: good fixture fired {fired:?}"));
            }
            continue;
        }
        if expected.is_empty() {
            failures.push(format!("{name}: bad fixture declares no expectations"));
            continue;
        }
        for want in &expected {
            if lints::by_id(want).is_none() {
                failures.push(format!("{name}: expects unknown lint `{want}`"));
            } else if !fired.contains(want) {
                failures.push(format!("{name}: expected `{want}` did not fire"));
            }
        }
        for got in &fired {
            if !expected.contains(got) {
                failures.push(format!("{name}: unexpected lint `{got}` fired"));
            }
        }
        covered.extend(expected.iter().map(|e| e.to_string()));
    }
    for lint in ALL_LINTS {
        if !covered.iter().any(|c| c == lint.id) {
            failures.push(format!("lint `{}` has no covering fixture", lint.id));
        }
    }
    failures
}

fn run_selftest() -> ExitCode {
    let failures = selftest_failures();
    if failures.is_empty() {
        println!("psa-verify selftest: all lint classes covered, fixtures behave");
        ExitCode::SUCCESS
    } else {
        for f in &failures {
            eprintln!("psa-verify selftest: {f}");
        }
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn selftest_corpus_passes() {
        let failures = selftest_failures();
        assert!(failures.is_empty(), "{failures:#?}");
    }

    /// `check crates/psa-verify/fixtures` (all-lints mode, one corpus)
    /// must print exactly `tests/golden/verify_fixtures.txt`: every finding
    /// on every fixture line, so a lint that stops firing on one line fails
    /// here instead of passing as "still > 0 violations".
    #[test]
    fn fixture_corpus_trips_the_checker() {
        let root = workspace_root();
        let units = load(&[root.join("crates/psa-verify/fixtures")]).expect("fixtures load");
        let v = analyze(&units, false);
        let got = format!("{}{}\n", report::human(&v), report::summary(units.len(), &v));
        let golden = root.join("tests/golden/verify_fixtures.txt");
        let want = std::fs::read_to_string(&golden).unwrap_or_default();
        if got != want {
            let first = got
                .lines()
                .zip(want.lines())
                .position(|(g, w)| g != w)
                .map_or("(one is a prefix of the other)".to_string(), |i| {
                    format!("line {}", i + 1)
                });
            panic!(
                "fixture transcript diverged from {} at {first}\n\
                 full actual transcript (paste over the file to re-baseline):\n{got}",
                golden.display()
            );
        }
    }

    #[test]
    fn workspace_walk_skips_fixture_and_target_dirs() {
        let root = workspace_root();
        let files = collect_rs(&root, true);
        assert!(!files.is_empty());
        for f in &files {
            let p = f.to_string_lossy().replace('\\', "/");
            assert!(!p.contains("/fixtures/"), "walked into fixtures: {p}");
            assert!(!p.contains("/target/"), "walked into target: {p}");
        }
    }

    /// Golden test over the `check --json` schema: downstream tooling (the
    /// CI diagnostics artifact) parses exactly this shape. If this test
    /// needs updating, bump `report::SCHEMA_VERSION`.
    #[test]
    fn json_report_schema_is_golden() {
        let src = "fn phase_calculus() { let t = Instant::now(); }\n";
        let units = vec![Unit::parse("crates/demo/src/lib.rs", src)];
        let violations = analyze(&units, false);
        let got = report::json(1, &violations);
        let want = concat!(
            "{\"tool\":\"psa-verify\",\"schema_version\":2,\"files_scanned\":1,\"ok\":false,",
            "\"violations\":[",
            "{\"lint\":\"nondet-taint\",\"file\":\"crates/demo/src/lib.rs\",\"line\":1,",
            "\"severity\":\"error\",",
            "\"needle\":\"Instant::now in `phase_calculus` (reachable from phase entry `phase_calculus`)\",",
            "\"message\":\"nondeterministic source reachable from a phase entry point; state ",
            "that feeds fingerprints must be a pure function of the seed — ",
            "route randomness through psa_math::Rng64, timing through the cost ",
            "model, and iteration through ordered collections\",",
            "\"snippet\":\"fn phase_calculus() { let t = Instant::now(); }\"}",
            "]}",
        );
        assert_eq!(got, want);
    }

    #[test]
    fn reordered_send_sequence_fails_protocol_conformance() {
        // The ISSUE's acceptance probe: a scratch executor that ships its
        // render batch before reporting Load must fail the check.
        let src = "\
// psa-verify: protocol-role(calculator, frame_loop)
fn frame_loop(ep: &E) {
    match ep.recv_deadline(0) { Msg::Particles { batch, .. } => use_batch(batch), }
    match ep.recv_deadline(0) { Msg::EndOfTransmission { .. } => (), }
    ep.send(1, Msg::Particles { batch });
    match ep.recv_deadline(0) { Msg::Particles { batch, .. } => use_batch(batch), }
    ep.send(9, Msg::RenderSplats { batch });
    ep.send(0, Msg::Load { info });
}
";
        let units = vec![Unit::parse("scratch.rs", src)];
        let violations = analyze(&units, false);
        assert!(
            violations.iter().any(|v| v.lint == "protocol-order"),
            "reorder must fail conformance: {violations:#?}"
        );
    }

    #[test]
    fn unknown_pragma_role_is_an_error() {
        let src = "// psa-verify: protocol-role(render-farm, f)\nfn f() {}\n";
        let units = vec![Unit::parse("x.rs", src)];
        let violations = analyze(&units, false);
        assert!(violations.iter().any(|v| v.needle.contains("unknown protocol role")));
    }
}
