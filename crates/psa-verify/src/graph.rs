//! Symbol table + conservative call graph over the workspace.
//!
//! Resolution is by callee *name* — without type information a method
//! call `x.f()` could target any function named `f`. Three rules keep that
//! conservatism useful instead of deafening (all three are deliberate
//! soundness trade-offs, documented in DESIGN.md):
//!
//! 1. **std-name blocklist** — names that overwhelmingly mean a std-library
//!    method (`len`, `push`, `iter`, ...) never resolve to workspace
//!    functions; otherwise every `.len()` would edge into any type that
//!    also has a `len`.
//! 2. **same-crate first** — if the caller's crate defines the name, only
//!    those candidates are used; cross-crate candidates are considered
//!    only when the caller's crate has none.
//! 3. **ambiguity cap** — a name with more than [`MAX_CANDIDATES`]
//!    cross-crate candidates resolves to none (it behaves like a std
//!    name).

use std::collections::BTreeMap;

use crate::ast::FnInfo;

/// A function, addressed by (file index, fn index) into the corpus.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct FnRef {
    pub file: usize,
    pub idx: usize,
}

/// Names that resolve to std-library methods, never workspace functions.
const STD_NAMES: &[&str] = &[
    "len",
    "is_empty",
    "push",
    "pop",
    "insert",
    "remove",
    "get",
    "get_mut",
    "iter",
    "iter_mut",
    "into_iter",
    "next",
    "clone",
    "cloned",
    "copied",
    "collect",
    "extend",
    "drain",
    "retain",
    "clear",
    "contains",
    "contains_key",
    "sort",
    "sort_by",
    "sort_by_key",
    "sort_unstable",
    "sort_unstable_by",
    "sort_unstable_by_key",
    "min",
    "max",
    "sum",
    "product",
    "map",
    "filter",
    "filter_map",
    "fold",
    "for_each",
    "and_then",
    "or_else",
    "unwrap",
    "expect",
    "unwrap_or",
    "unwrap_or_else",
    "unwrap_or_default",
    "ok_or",
    "ok_or_else",
    "ok",
    "err",
    "take",
    "replace",
    "swap",
    "split",
    "split_at",
    "join",
    "find",
    "position",
    "any",
    "all",
    "zip",
    "rev",
    "chain",
    "enumerate",
    "flat_map",
    "flatten",
    "last",
    "first",
    "entry",
    "or_insert",
    "or_insert_with",
    "to_string",
    "to_vec",
    "to_owned",
    "as_str",
    "as_slice",
    "as_ref",
    "as_mut",
    "as_bytes",
    "into",
    "from",
    "try_from",
    "try_into",
    "parse",
    "abs",
    "min_by",
    "max_by",
    "min_by_key",
    "max_by_key",
    "floor",
    "ceil",
    "round",
    "sqrt",
    "powi",
    "powf",
    "exp",
    "ln",
    "new",
    "with_capacity",
    "default",
    "fmt",
    "eq",
    "ne",
    "cmp",
    "partial_cmp",
    "hash",
    "drop",
    "index",
    "windows",
    "chunks",
    "starts_with",
    "ends_with",
    "trim",
    "lines",
    "chars",
    "bytes",
    "count",
    "rem_euclid",
    "clamp",
    "max_element",
    "min_element",
    "total_cmp",
    "is_finite",
    "is_nan",
    "wrapping_add",
    "wrapping_mul",
    "saturating_sub",
    "saturating_add",
    "checked_sub",
    "write",
    "writeln",
    "format",
    "print",
    "println",
    "eprintln",
    "vec",
    "assert",
    "assert_eq",
    "assert_ne",
    "debug_assert",
    "matches",
    "skip",
    "step_by",
    "resize",
    "truncate",
    "append",
    "binary_search",
    "binary_search_by",
    "partition_point",
    "split_off",
    "keys",
    "values",
    "values_mut",
    "range",
    "rotate_left",
    "rotate_right",
    "fill",
    "concat",
    "repeat",
    "splitn",
    "split_whitespace",
    "find_map",
    "peekable",
    "peek",
    "by_ref",
    "cycle",
    "inspect",
    "nth",
    "reduce",
    "scan",
    "take_while",
    "skip_while",
    "lt",
    "le",
    "gt",
    "ge",
    "then",
    "then_some",
    "map_or",
    "map_err",
    "is_some",
    "is_none",
    "is_ok",
    "is_err",
    "as_deref",
    "as_mut_slice",
];

/// Cross-crate candidate cap; past this the name is treated like std.
const MAX_CANDIDATES: usize = 6;

/// The call graph: adjacency from each function to its resolved callees.
pub struct CallGraph {
    /// Per (file, fn): resolved callees.
    edges: BTreeMap<FnRef, Vec<FnRef>>,
}

/// The crate a workspace-relative path belongs to (`crates/<name>/...`),
/// or the path's first component for root sources.
fn crate_of(rel: &str) -> &str {
    let mut parts = rel.split('/');
    match (parts.next(), parts.next()) {
        (Some("crates"), Some(c)) => c,
        (Some(first), _) => first,
        _ => rel,
    }
}

impl CallGraph {
    /// Build from the corpus: `files[i]` is `(rel_path, fns)`.
    pub fn build(files: &[(&str, &[FnInfo])]) -> CallGraph {
        // Symbol table: name -> every function carrying it.
        let mut by_name: BTreeMap<&str, Vec<FnRef>> = BTreeMap::new();
        for (fi, (_, fns)) in files.iter().enumerate() {
            for (xi, f) in fns.iter().enumerate() {
                by_name.entry(f.name.as_str()).or_default().push(FnRef { file: fi, idx: xi });
            }
        }
        let mut edges: BTreeMap<FnRef, Vec<FnRef>> = BTreeMap::new();
        for (fi, (rel, fns)) in files.iter().enumerate() {
            let caller_crate = crate_of(rel);
            for (xi, f) in fns.iter().enumerate() {
                let mut out = Vec::new();
                for (callee, _) in f.calls() {
                    if STD_NAMES.contains(&callee) {
                        continue;
                    }
                    let Some(cands) = by_name.get(callee) else { continue };
                    let same: Vec<FnRef> = cands
                        .iter()
                        .copied()
                        .filter(|r| crate_of(files[r.file].0) == caller_crate)
                        .collect();
                    let chosen: &[FnRef] = if !same.is_empty() {
                        &same
                    } else if cands.len() <= MAX_CANDIDATES {
                        cands
                    } else {
                        &[]
                    };
                    for &r in chosen {
                        if r != (FnRef { file: fi, idx: xi }) && !out.contains(&r) {
                            out.push(r);
                        }
                    }
                }
                edges.insert(FnRef { file: fi, idx: xi }, out);
            }
        }
        CallGraph { edges }
    }

    /// BFS over the graph from `entries`; returns, for every reachable
    /// function, the entry it was first reached from (entries map to
    /// themselves). Deterministic: entries are visited in order and
    /// adjacency lists preserve call order.
    pub fn reach(&self, entries: &[FnRef]) -> BTreeMap<FnRef, FnRef> {
        use std::collections::btree_map::Entry;
        let mut origin: BTreeMap<FnRef, FnRef> = BTreeMap::new();
        let mut queue: std::collections::VecDeque<FnRef> = std::collections::VecDeque::new();
        for &e in entries {
            if let Entry::Vacant(slot) = origin.entry(e) {
                slot.insert(e);
                queue.push_back(e);
            }
        }
        while let Some(cur) = queue.pop_front() {
            let Some(&root) = origin.get(&cur) else { continue };
            if let Some(nexts) = self.edges.get(&cur) {
                for &n in nexts {
                    if let Entry::Vacant(slot) = origin.entry(n) {
                        slot.insert(root);
                        queue.push_back(n);
                    }
                }
            }
        }
        origin
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(src: &str) -> Vec<FnInfo> {
        crate::corpus::Unit::parse("x.rs", src).fns
    }

    #[test]
    fn same_crate_beats_cross_crate() {
        let a = parse("fn top() { helper(); }\nfn helper() {}\n");
        let b = parse("fn helper() { x.unwrap(); }\n");
        let files: Vec<(&str, &[FnInfo])> =
            vec![("crates/a/src/lib.rs", &a), ("crates/b/src/lib.rs", &b)];
        let g = CallGraph::build(&files);
        let reached = g.reach(&[FnRef { file: 0, idx: 0 }]);
        assert!(reached.contains_key(&FnRef { file: 0, idx: 1 }), "same-crate helper");
        assert!(!reached.contains_key(&FnRef { file: 1, idx: 0 }), "cross-crate shadowed");
    }

    #[test]
    fn cross_crate_resolves_when_local_is_absent() {
        let a = parse("fn top() { run_actions(); }\n");
        let b = parse("fn run_actions() {}\n");
        let files: Vec<(&str, &[FnInfo])> =
            vec![("crates/a/src/lib.rs", &a), ("crates/b/src/kernel.rs", &b)];
        let g = CallGraph::build(&files);
        let reached = g.reach(&[FnRef { file: 0, idx: 0 }]);
        assert!(reached.contains_key(&FnRef { file: 1, idx: 0 }));
    }

    #[test]
    fn std_names_never_resolve() {
        let a = parse("fn top(v: &mut Vec<u32>) { v.push(1); v.len(); }\n");
        let b = parse("fn push() { panic!(); }\nfn len() -> usize { 0 }\n");
        let files: Vec<(&str, &[FnInfo])> =
            vec![("crates/a/src/lib.rs", &a), ("crates/b/src/lib.rs", &b)];
        let g = CallGraph::build(&files);
        let reached = g.reach(&[FnRef { file: 0, idx: 0 }]);
        assert_eq!(reached.len(), 1, "{reached:?}");
    }

    #[test]
    fn origin_tracks_the_first_entry() {
        let a = parse("fn entry_a() { shared(); }\nfn entry_b() { shared(); }\nfn shared() {}\n");
        let files: Vec<(&str, &[FnInfo])> = vec![("crates/a/src/lib.rs", &a)];
        let g = CallGraph::build(&files);
        let reached = g.reach(&[FnRef { file: 0, idx: 0 }, FnRef { file: 0, idx: 1 }]);
        assert_eq!(reached[&FnRef { file: 0, idx: 2 }], FnRef { file: 0, idx: 0 });
    }
}
