//! Panic reachability from the protocol send/recv paths.
//!
//! A rank thread that panics mid-protocol does not fail the run — it
//! leaves every peer blocked on a receive that will never complete. Clippy
//! denies panic constructs *inside* the protocol modules (`#![deny(...)]`
//! in `psa-runtime`'s `msg.rs` and `netsim`'s `lib.rs`); this pass walks
//! the call graph outward from the panic roots (plus any
//! `// psa-verify: panic-entry(<fn>)` pragma roots) and flags what a
//! per-module rule cannot see:
//!
//! * **`panic-reach`** — `.unwrap()` / `.expect(` / panic-family macros in
//!   any *reachable* function;
//! * **`index-panic`** — slice/array indexing with a non-literal index in
//!   any reachable function. Indexing is split into its own lint because
//!   the fabric hot paths index rank-keyed vectors by construction-bounded
//!   values; those files carry one documented file-level
//!   `allow(index-panic)` each, without blunting the unwrap/panic rule.

use crate::audit::Raw;
use crate::corpus::Unit;
use crate::graph::{CallGraph, FnRef};
use crate::lints::{INDEX_PANIC, PANIC_REACH};
use crate::policy;

/// Run the panic-reachability pass. Roots are every non-test function in a
/// file under [`policy::PANIC_ROOTS`], plus pragma-named functions.
pub fn run(units: &[Unit], graph: &CallGraph, eligible: &[bool]) -> Vec<Raw> {
    let mut entries: Vec<FnRef> = Vec::new();
    for (fi, unit) in units.iter().enumerate() {
        if !eligible[fi] {
            continue;
        }
        let is_root_file = policy::PANIC_ROOTS.iter().any(|r| policy::under(&unit.rel, r));
        for (xi, f) in unit.fns.iter().enumerate() {
            if f.is_test {
                continue;
            }
            if is_root_file || unit.lex.panic_entries.iter().any(|e| e == &f.name) {
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
        let root_name = units[from.file].fns[from.idx].name.as_str();
        let sites = f
            .panics
            .iter()
            .map(|s| (&PANIC_REACH, s))
            .chain(f.indexing.iter().map(|s| (&INDEX_PANIC, s)));
        for (lint, site) in sites.filter(|(_, s)| !unit.in_test(s.line)) {
            let needle = format!(
                "{} in `{}` (reachable from protocol root `{}`)",
                site.what, f.name, root_name
            );
            out.push(Raw { unit: r.file, v: unit.finding(lint, site.line, needle) });
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
    fn unwrap_reachable_from_a_protocol_root_fires_outside_it() {
        let (units, graph, elig) = corpus(&[
            ("crates/netsim/src/virtual_net.rs", "fn deliver() { decode_batch(); }\n"),
            (
                "crates/psa-core/src/codec.rs",
                "fn decode_batch() { hdr.first().expect(\"hdr\"); }\n",
            ),
        ]);
        let raws = run(&units, &graph, &elig);
        let reach: Vec<&Raw> = raws.iter().filter(|r| r.v.lint == "panic-reach").collect();
        assert_eq!(reach.len(), 1, "{raws:#?}");
        assert_eq!(reach[0].v.file, "crates/psa-core/src/codec.rs");
        assert!(reach[0].v.needle.contains("deliver"), "{}", reach[0].v.needle);
    }

    #[test]
    fn indexing_fires_everywhere_reachable_including_root_files() {
        let (units, graph, elig) = corpus(&[(
            "crates/netsim/src/virtual_net.rs",
            "fn route(&mut self, r: usize) { self.clocks[r] += 1; }\n",
        )]);
        let raws = run(&units, &graph, &elig);
        assert_eq!(raws.len(), 1);
        assert_eq!(raws[0].v.lint, "index-panic");
    }

    #[test]
    fn pragma_entry_roots_a_fixture_file() {
        let (units, graph, elig) = corpus(&[(
            "fixture.rs",
            "// psa-verify: panic-entry(handle)\nfn handle() { helper(); }\nfn helper() { x.unwrap(); }\nfn cold() { y.unwrap(); }\n",
        )]);
        let raws = run(&units, &graph, &elig);
        assert_eq!(raws.len(), 1, "{raws:#?}");
        assert!(raws[0].v.needle.contains("helper"));
        assert!(raws[0].v.needle.contains("handle"));
    }

    #[test]
    fn unreachable_panics_are_not_flagged() {
        let (units, graph, elig) =
            corpus(&[("crates/psa-core/src/lib.rs", "fn free_standing() { x.unwrap(); }\n")]);
        assert!(run(&units, &graph, &elig).is_empty());
    }
}
