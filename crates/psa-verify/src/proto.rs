//! Figure-2 protocol conformance: the six-phase message protocol as an
//! explicit state-machine table, checked against the send/recv sequence
//! statically extracted from each executor's frame loop.
//!
//! ## The spec tables
//!
//! Each executor role has an ordered list of [`Step`]s. `required` steps
//! must appear every frame; optional steps cover the dynamic-balance and
//! fault branches (Orders/NewCut/Domains, donations) that a static
//! extraction cannot prove taken. The three threaded roles each carry their
//! own table; the virtual executor runs every role inside one engine, so
//! its table is the *interleaved* global order of `run_frames`.
//!
//! ## Extraction
//!
//! Starting from the role's entry function, the checker inlines same-file
//! callees at their *first* call site (in token order) and concatenates
//! the `Msg::Kind` send/recv events it meets. First-site-only inlining is
//! what makes branchy code checkable: a driver that reaches the same
//! helper from two branches (the engine's dense and sparse exchange both
//! call `recv_exchange`) contributes its events once — the repeated calls
//! add nothing instead of doubling the sequence.
//! Consecutive duplicate events collapse (per-peer send loops).
//!
//! ## Matching
//!
//! Greedy single-pass subsequence match: each extracted event advances a
//! cursor through the spec; *required* steps the cursor skips over are
//! violations, an event that fits nowhere ahead of the cursor restarts a
//! new pass (so a genuinely repeated frame body still checks), and
//! required steps still unmatched when the sequence ends are violations.
//! A role that yields no events at all is also an error — extraction rot
//! must never look like conformance.

use std::collections::BTreeSet;

use crate::ast::{BodyItem, Dir, FnInfo};

/// One step of a role's protocol table.
#[derive(Clone, Copy, Debug)]
pub struct Step {
    pub dir: Dir,
    pub kind: &'static str,
    /// Required every frame, or only on a dynamic branch.
    pub required: bool,
}

const fn s(kind: &'static str, required: bool) -> Step {
    Step { dir: Dir::Send, kind, required }
}
const fn r(kind: &'static str, required: bool) -> Step {
    Step { dir: Dir::Recv, kind, required }
}

/// A calculator's frame loop (threaded executor, Figure 2 left column):
/// creation in, compute, exchange, load report, then the dynamic-balance
/// branch (orders / donor cut / domains / donation), then ship: the frame
/// digest every frame, the splat records after it and only when something
/// rasterizes — and then only after the image generator's `FrameDone` for
/// the frame a window back, which is why that receive sits before the
/// digest.
pub const CALCULATOR: &[Step] = &[
    r("Particles", true),
    r("EndOfTransmission", true),
    s("Particles", true),
    r("Particles", true),
    s("Load", true),
    r("Orders", false),
    s("NewCut", false),
    r("Domains", false),
    s("Particles", false),
    r("Particles", false),
    r("FrameDone", false),
    s("FrameDigest", true),
    s("RenderSplats", false),
];

/// The manager's frame loop: emission out, load gather, then the
/// dynamic-balance branch (orders / cut collection / domain broadcast).
pub const MANAGER: &[Step] = &[
    s("Particles", true),
    s("EndOfTransmission", true),
    r("Load", true),
    s("Orders", false),
    r("NewCut", false),
    s("Domains", false),
];

/// The image generator: one digest per (system, calculator), each followed
/// by that calculator's render batch when there is a sink to draw into; a
/// frame it has drawn is then reported done to the calculators.
pub const IMAGE_GENERATOR: &[Step] =
    &[r("FrameDigest", true), r("RenderSplats", false), s("FrameDone", false)];

/// The virtual engine runs all roles in one address space, so its table is
/// the interleaved global event order of `run_frames`: creation, addition,
/// exchange, load reports (manager + optional decentralized neighbors),
/// optional orders, optional transfers (via-manager NewCut/Domains, then
/// the decentralized NewCut branch, then donations), and ship.
pub const VIRTUAL_ENGINE: &[Step] = &[
    s("Particles", true),
    s("EndOfTransmission", true),
    r("Particles", true),
    r("EndOfTransmission", true),
    s("Particles", true),
    r("Particles", true),
    s("Load", true),
    r("Load", true),
    s("Orders", false),
    r("Orders", false),
    s("NewCut", false),
    r("NewCut", false),
    s("Domains", false),
    r("Domains", false),
    s("NewCut", false),
    r("NewCut", false),
    s("Particles", false),
    r("Particles", false),
    s("RenderBatch", true),
    r("RenderBatch", true),
];

/// Look up a role table by name (used by workspace policy and the
/// `// psa-verify: protocol-role(<role>, <fn>)` fixture pragma).
pub fn spec_for_role(role: &str) -> Option<&'static [Step]> {
    match role {
        "calculator" => Some(CALCULATOR),
        "manager" => Some(MANAGER),
        "image-generator" => Some(IMAGE_GENERATOR),
        "virtual-engine" => Some(VIRTUAL_ENGINE),
        _ => None,
    }
}

/// One extracted protocol event.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Event {
    pub dir: Dir,
    pub kind: String,
    pub line: usize,
}

/// Statically extract the ordered event sequence of `entry` within one
/// file's functions, inlining same-file callees at their first call site.
pub fn extract_events(fns: &[FnInfo], entry: &str) -> Vec<Event> {
    let mut events = Vec::new();
    let mut visited: BTreeSet<String> = BTreeSet::new();
    walk(fns, entry, &mut visited, &mut events);
    // Collapse consecutive duplicates: per-peer loops send the same kind
    // once per destination; the protocol table holds one step for them.
    events.dedup_by(|a, b| a.dir == b.dir && a.kind == b.kind);
    events
}

fn walk(fns: &[FnInfo], name: &str, visited: &mut BTreeSet<String>, out: &mut Vec<Event>) {
    if !visited.insert(name.to_string()) {
        return;
    }
    let Some(f) = fns.iter().find(|f| f.name == name && !f.is_test) else {
        return;
    };
    for item in &f.items {
        match item {
            BodyItem::Event { dir, kind, line } => {
                out.push(Event { dir: *dir, kind: kind.clone(), line: *line });
            }
            BodyItem::Call { name: callee, .. } => {
                walk(fns, callee, visited, out);
            }
        }
    }
}

/// Check one role's extracted events against its spec table. Returns the
/// deviations as `(0-based line, needle)`; the caller makes them
/// `protocol-order` findings.
pub fn check_role(
    role: &str,
    entry: &str,
    entry_line: usize,
    spec: &[Step],
    events: &[Event],
) -> Vec<(usize, String)> {
    let mut out = Vec::new();
    let mut vio = |line: usize, needle: String| out.push((line, needle));

    if events.is_empty() {
        vio(
            entry_line,
            format!("role `{role}`: no protocol events extracted from `{entry}` (extraction rot?)"),
        );
        return out;
    }

    let matches = |st: &Step, e: &Event| st.dir == e.dir && st.kind == e.kind;
    let mut cursor = 0usize;
    for e in events {
        // Find the next spec slot this event fits, at or after the cursor.
        if let Some(hit) = spec[cursor..].iter().position(|st| matches(st, e)) {
            for st in &spec[cursor..cursor + hit] {
                if st.required {
                    vio(
                        e.line,
                        format!(
                            "role `{role}`: required step {} {} skipped before {} {}",
                            st.dir.name(),
                            st.kind,
                            e.dir.name(),
                            e.kind
                        ),
                    );
                }
            }
            cursor += hit + 1;
            continue;
        }
        // Doesn't fit ahead: close this pass (flagging what it missed) and
        // restart — a legitimately repeated frame body re-enters the table.
        for st in &spec[cursor..] {
            if st.required {
                vio(
                    e.line,
                    format!(
                        "role `{role}`: required step {} {} missing from frame pass",
                        st.dir.name(),
                        st.kind
                    ),
                );
            }
        }
        if let Some(hit) = spec.iter().position(|st| matches(st, e)) {
            for st in &spec[..hit] {
                if st.required {
                    vio(
                        e.line,
                        format!(
                            "role `{role}`: required step {} {} skipped before {} {}",
                            st.dir.name(),
                            st.kind,
                            e.dir.name(),
                            e.kind
                        ),
                    );
                }
            }
            cursor = hit + 1;
        } else {
            vio(
                e.line,
                format!("role `{role}`: event {} {} is not in the protocol", e.dir.name(), e.kind),
            );
            // leave the cursor where it was: an alien event breaks nothing else
        }
    }
    for st in &spec[cursor..] {
        if st.required {
            vio(
                events.last().map_or(entry_line, |e| e.line),
                format!(
                    "role `{role}`: required step {} {} never happens in `{entry}`",
                    st.dir.name(),
                    st.kind
                ),
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn events_of(src: &str, entry: &str) -> Vec<Event> {
        extract_events(&crate::corpus::Unit::parse("f.rs", src).fns, entry)
    }

    fn kinds(ev: &[Event]) -> Vec<String> {
        ev.iter().map(|e| format!("{} {}", e.dir.name(), e.kind)).collect()
    }

    const GOOD_CALC: &str = r#"
fn frame_loop(ep: &E) {
    let batch = expect_msg!(ep, Msg::Particles { batch, .. } => batch, "Particles");
    expect_msg!(ep, Msg::EndOfTransmission { .. } => (), "EOT");
    exchange(ep);
    ep.send(mgr, Msg::Load { info, migrated });
    ep.send_sized(ig, Msg::FrameDigest { alive, hash });
    ep.send_sized(ig, Msg::RenderSplats { batch });
}
fn exchange(ep: &E) {
    for d in dests {
        ep.send(d, Msg::Particles { batch, scale });
    }
    for d in dests {
        expect_msg!(ep, Msg::Particles { batch, .. } => batch, "Particles");
    }
}
"#;

    #[test]
    fn inlining_follows_first_call_site_in_order() {
        let ev = events_of(GOOD_CALC, "frame_loop");
        assert_eq!(
            kinds(&ev),
            vec![
                "recv Particles",
                "recv EndOfTransmission",
                "send Particles",
                "recv Particles",
                "send Load",
                "send FrameDigest",
                "send RenderSplats"
            ]
        );
    }

    #[test]
    fn good_calculator_sequence_conforms() {
        let ev = events_of(GOOD_CALC, "frame_loop");
        let v = check_role("calculator", "frame_loop", 0, CALCULATOR, &ev);
        assert!(v.is_empty(), "{v:#?}");
    }

    #[test]
    fn shipping_before_the_load_report_fails() {
        let src = r#"
fn frame_loop(ep: &E) {
    expect_msg!(ep, Msg::Particles { batch, .. } => batch, "Particles");
    expect_msg!(ep, Msg::EndOfTransmission { .. } => (), "EOT");
    ep.send(d, Msg::Particles { batch });
    expect_msg!(ep, Msg::Particles { batch, .. } => batch, "Particles");
    ep.send(ig, Msg::FrameDigest { alive, hash });
    ep.send(mgr, Msg::Load { info });
}
"#;
        let ev = events_of(src, "frame_loop");
        let v = check_role("calculator", "frame_loop", 0, CALCULATOR, &ev);
        assert!(!v.is_empty());
        assert!(v.iter().any(|x| x.1.contains("send Load")), "{v:#?}");
    }

    #[test]
    fn repeated_call_sites_do_not_double_the_sequence() {
        let src = r#"
fn run(ep: &E) {
    if per_system { body(ep); } else { body(ep); }
}
fn body(ep: &E) {
    ep.send(c, Msg::Particles { batch });
    ep.send(c, Msg::EndOfTransmission {});
    expect_msg!(ep, Msg::Load { info, .. } => info, "Load");
}
"#;
        let ev = events_of(src, "run");
        assert_eq!(ev.len(), 3, "{:?}", kinds(&ev));
        let v = check_role("manager", "run", 0, MANAGER, &ev);
        assert!(v.is_empty(), "{v:#?}");
    }

    #[test]
    fn a_missing_required_step_fails() {
        let src = r#"
fn loop_(ep: &E) {
    ep.send(c, Msg::Particles { batch });
    expect_msg!(ep, Msg::Load { info, .. } => info, "Load");
}
"#;
        let ev = events_of(src, "loop_");
        let v = check_role("manager", "loop_", 0, MANAGER, &ev);
        assert!(v.iter().any(|x| x.1.contains("EndOfTransmission")), "{v:#?}");
    }

    #[test]
    fn empty_extraction_is_an_error() {
        let v = check_role("manager", "ghost", 0, MANAGER, &[]);
        assert_eq!(v.len(), 1);
        assert!(v[0].1.contains("no protocol events"));
    }

    #[test]
    fn alien_event_is_flagged() {
        let src = "fn f(ep: &E) { ep.send(c, Msg::Load {}); }\n";
        let ev = events_of(src, "f");
        let v = check_role("image-generator", "f", 0, IMAGE_GENERATOR, &ev);
        assert!(v.iter().any(|x| x.1.contains("not in the protocol")), "{v:#?}");
    }

    #[test]
    fn every_named_role_resolves() {
        for role in ["calculator", "manager", "image-generator", "virtual-engine"] {
            assert!(spec_for_role(role).is_some());
        }
        assert!(spec_for_role("nope").is_none());
    }
}
