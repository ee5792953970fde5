//! Nondeterminism taint: ambient sources (wall clock, unordered
//! collections, ambient RNG, thread identity) inside any function
//! *reachable from a phase entry point* over the conservative call graph.
//!
//! Clippy refuses the host clock and hash-ordered collections by path
//! everywhere in the workspace, but an `#[expect]` that excuses a real-time
//! site there says nothing about whether a phase entry reaches it; this
//! pass does. Each finding names both the tainted function and the phase
//! entry it was reached from, so the fix site and the contract it violates
//! are in the same diagnostic. Only `// psa-verify: allow(nondet-taint)`
//! excuses one. The needles are token sequences (`ast`), so a renamed
//! import still gets past this pass; clippy catches it at the use site.

use crate::audit::Raw;
use crate::corpus::Unit;
use crate::graph::{CallGraph, FnRef};
use crate::lints::NONDET_TAINT;

/// Run the taint pass. `eligible[i]` gates which units participate (the
/// graph is built over all units with ineligible ones contributing no
/// functions, keeping `FnRef.file` aligned with `units`); `entry_names`
/// are the phase entry points, matched by function name.
pub fn run(units: &[Unit], graph: &CallGraph, eligible: &[bool], entry_names: &[&str]) -> Vec<Raw> {
    let mut entries: Vec<FnRef> = Vec::new();
    for (fi, unit) in units.iter().enumerate() {
        if !eligible[fi] {
            continue;
        }
        for (xi, f) in unit.fns.iter().enumerate() {
            if !f.is_test && entry_names.contains(&f.name.as_str()) {
                entries.push(FnRef { file: fi, idx: xi });
            }
        }
    }
    let origin = graph.reach(&entries);

    let mut out = Vec::new();
    for (&r, &from) in &origin {
        let unit = &units[r.file];
        let f = &unit.fns[r.idx];
        if f.is_test {
            continue;
        }
        let entry_name = units[from.file].fns[from.idx].name.as_str();
        for hit in f.sources.iter().filter(|h| !unit.in_test(h.line)) {
            let needle = format!(
                "{} in `{}` (reachable from phase entry `{}`)",
                hit.what, f.name, entry_name
            );
            out.push(Raw { unit: r.file, v: unit.finding(&NONDET_TAINT, hit.line, needle) });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn corpus(files: &[(&str, &str)]) -> (Vec<Unit>, CallGraph, Vec<bool>) {
        let units: Vec<Unit> = files.iter().map(|(rel, src)| Unit::parse(rel, src)).collect();
        let views: Vec<(&str, &[crate::ast::FnInfo])> =
            units.iter().map(|u| (u.rel.as_str(), u.fns.as_slice())).collect();
        let graph = CallGraph::build(&views);
        let eligible = vec![true; units.len()];
        (units, graph, eligible)
    }

    #[test]
    fn transitive_taint_is_found_and_names_the_entry() {
        let (units, graph, elig) = corpus(&[
            (
                "crates/a/src/lib.rs",
                "fn phase_calculus() { helper(); }\nfn unrelated() { also_tainted(); }\n",
            ),
            (
                "crates/b/src/lib.rs",
                "fn helper() { let t = Instant::now(); }\nfn also_tainted() { let m = HashMap::new(); }\n",
            ),
        ]);
        let raws = run(&units, &graph, &elig, &["phase_calculus"]);
        assert_eq!(raws.len(), 1, "{raws:#?}");
        let v = &raws[0].v;
        assert_eq!(v.lint, "nondet-taint");
        assert_eq!(v.file, "crates/b/src/lib.rs");
        assert!(v.needle.contains("Instant::now"));
        assert!(v.needle.contains("phase_calculus"), "{}", v.needle);
    }

    #[test]
    fn sources_in_test_code_are_exempt() {
        let (units, graph, elig) = corpus(&[(
            "crates/a/src/lib.rs",
            "fn phase_exchange() {}\n#[cfg(test)]\nmod tests {\n    fn phase_exchange_t() { let t = Instant::now(); }\n}\n",
        )]);
        assert!(run(&units, &graph, &elig, &["phase_exchange"]).is_empty());
    }

    #[test]
    fn thread_identity_has_no_per_source_escape() {
        let (units, graph, elig) = corpus(&[(
            "crates/a/src/lib.rs",
            "fn phase_ship() { let id = thread::current().id(); }\n",
        )]);
        let raws = run(&units, &graph, &elig, &["phase_ship"]);
        assert_eq!(raws.len(), 1);
        assert!(raws[0].v.needle.starts_with("thread::current"), "{}", raws[0].v.needle);
    }

    #[test]
    fn ineligible_units_contribute_no_entries() {
        let units: Vec<Unit> = vec![Unit::parse(
            "crates/a/src/lib.rs",
            "fn phase_loads() { let t = Instant::now(); }\n",
        )];
        let views: Vec<(&str, &[crate::ast::FnInfo])> = vec![("crates/a/src/lib.rs", &[])];
        let graph = CallGraph::build(&views);
        assert!(run(&units, &graph, &[false], &["phase_loads"]).is_empty());
    }
}
