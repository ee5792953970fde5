//! `bench` command-line contract: the subcommands it has, what it refuses,
//! and that what it writes and prints is the committed artifact or
//! transcript.

mod common;

use common::bench;
use std::process::Output;

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// An artifact with its host-time fields removed (the only ones allowed to
/// differ between two runs).
fn without_wall_seconds(json: &str) -> String {
    let strip = |line: &str| match line.find("\"wall_seconds\": ") {
        Some(at) => {
            let end = at + line[at..].find([',', '}']).expect("a number ends at , or }");
            format!("{}{}", &line[..at], &line[end..])
        }
        None => line.to_string(),
    };
    json.lines().map(strip).collect::<Vec<_>>().join("\n")
}

/// The subcommand list is pinned: `tables`, one per committed artifact, the
/// two committed transcripts and `animate`.
#[test]
fn usage_lists_exactly_the_pinned_subcommands() {
    let out = bench(&[]);
    assert_eq!(out.status.code(), Some(2));
    let usage = stderr(&out);
    let listed: Vec<&str> = usage
        .lines()
        .filter_map(|l| l.trim().strip_prefix("bench "))
        .filter_map(|l| l.split_whitespace().next())
        .collect();
    let pinned = ["tables", "3", "5", "6", "7", "8", "chaos", "sessions", "animate"];
    assert_eq!(listed, pinned, "{usage}");
    assert!(
        usage.contains("[table1|table2|table3|text-snow|text-fountain|reductions|all]"),
        "{usage}"
    );
    for id in [3, 5, 6, 7, 8] {
        assert!(usage.contains(&format!("[--out BENCH_{id}.json]")), "{usage}");
    }
    assert!(usage.contains("[--matrix smoke|full]"), "{usage}");
    assert!(usage.contains("[--scene snow|fountain|vortex]"), "{usage}");
    assert!(usage.contains("[--instrument]"), "{usage}");
    assert!(usage.contains("bench animate <snow|fountain|fireworks|smoke> [--executor"), "{usage}");
    assert!(usage.contains("[--render DIR] [--streaks]"), "{usage}");
}

/// Malformed input is a usage error on every artifact subcommand and on
/// `animate` (the `chaos`, `sessions` and `animate` flag-combination rows
/// live in `chaos_cli.rs`, `sessions_cli.rs` and `animate_cli.rs`).
#[test]
fn malformed_arguments_exit_2_without_panicking() {
    for (args, why) in [
        (&["9"][..], "unknown subcommand"),
        (&["repro"], "a retired binary name is not an alias"),
        (&["4"], "the retired modeled-kernel export is not a subcommand"),
        (&["tables", "table4"], "unknown section"),
        (&["5", "--cells", "3"], "unknown flag"),
        (&["7", "--out"], "missing value"),
        (&["5", "--frames", "abc"], "unparsable number"),
        (&["5", "--frames", "-3"], "negative count"),
        (&["3", "--scale", "NaN"], "non-finite number"),
        (&["3", "--scale", "0.5"], "paper sizes cannot scale below 1"),
        (&["5", "--scale", "0"], "a zero scale divides the cost model by zero"),
        (&["6", "--scale", "0"], "a zero scale divides the cost model by zero"),
        (&["8", "--intervals", ""], "empty list"),
        (&["8", "--crash-frames", "2,,5"], "empty list entry"),
        (&["5", "--ranks", "0"], "no calculators"),
        (&["6", "--ranks", "8,1"], "the degraded-manager scenario needs two calculators"),
        (&["7", "--sessions", "0"], "an empty pool"),
        (&["8", "--calculators", "1"], "the victim rank would not exist"),
        (&["tables", "--frames", "0"], "a table of zero-frame speed-ups"),
        (&["3", "--frames", "0"], "a zero-frame run"),
        (&["5", "--frames", "0"], "a zero-frame run"),
        (&["6", "--frames", "0"], "a zero-frame run"),
        (&["7", "--frames", "0"], "a zero-frame run"),
        (&["8", "--frames", "0"], "a zero-frame run"),
        (&["5", "--systems", "0", "--ranks", "8", "--frames", "1"], "a sweep of no systems"),
        (&["5", "--particles", "0", "--ranks", "8", "--frames", "1"], "empty systems"),
        (&["6", "--systems", "0", "--ranks", "2", "--frames", "2"], "a sweep of no systems"),
        (&["6", "--particles", "0", "--ranks", "2", "--frames", "2"], "empty systems"),
        (&["7", "--particles", "0", "--sessions", "1", "--frames", "1"], "empty sessions"),
        (
            &["8", "--particles", "0", "--calculators", "2", "--crash-frames", "2"],
            "empty snapshots",
        ),
        (&["8", "--intervals", "0", "--calculators", "2", "--crash-frames", "0"], "no checkpoints"),
        (&["animate"], "no workload: `needs one of`"),
        (&["animate", "all"], "animate runs one workload"),
        (&["animate", "--frames", "2"], "a flag is no workload: `needs one of`"),
        (&["animate", "snow", "--frames", "0"], "a zero-frame animation"),
        (&["animate", "smoke", "--systems", "0"], "no systems, not a silent one"),
        (&["animate", "snow", "--particles", "0"], "empty systems"),
    ] {
        common::assert_usage_error(args, why);
    }
}

/// `bench tables`' section is optional: a leading flag is a flag, not a
/// selection.
#[test]
fn tables_without_a_selection_takes_flags() {
    let out = bench(&["tables", "--scale", "400", "--frames", "1"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.starts_with("# Reproduction: 1000 real particles/system"), "{stdout}");
    assert!(stdout.contains("1 frames"), "{stdout}");
}

/// A run that fails validation exits 1 and leaves no artifact behind.
#[test]
fn failed_validation_exits_1_and_writes_nothing() {
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("bench_cli_invalid.json");
    let path_str = path.to_str().expect("utf-8 temp dir");
    // Crash frame 9 lies outside a 4-frame run.
    let args = format!(
        "8 --calculators 2 --intervals 2 --crash-frames 9 --frames 4 --particles 50 --out {path_str}"
    );
    let out = bench(&args.split(' ').collect::<Vec<_>>());
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
    assert!(stderr(&out).contains("validation failed"), "{}", stderr(&out));
    assert!(!path.exists());
}

/// `bench 8` at its defaults regenerates the committed `BENCH_8.json`
/// byte for byte (`wall_seconds` aside) and says where it wrote it.
#[test]
fn bench_8_regenerates_the_committed_artifact() {
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("bench_cli_8.json");
    let path_str = path.to_str().expect("utf-8 temp dir");
    let out = bench(&["8", "--out", path_str]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert_eq!(String::from_utf8_lossy(&out.stdout), format!("wrote {path_str}\n"));
    let written = std::fs::read_to_string(&path).expect("bench 8 wrote its artifact");
    std::fs::remove_file(&path).expect("temp artifact is removable");
    let stripped = without_wall_seconds(&written);
    assert!(stripped.len() < written.len(), "the artifact carries wall_seconds");
    assert_eq!(stripped, without_wall_seconds(include_str!("../../../BENCH_8.json")));
}

/// `bench chaos` and `bench sessions` print the committed transcripts byte
/// for byte (CI's `chaos-smoke` job diffs the same three, with the runtime
/// invariants compiled in).
#[test]
fn chaos_and_sessions_print_the_committed_transcripts() {
    for (args, golden) in [
        (&["chaos"][..], include_str!("../../../tests/golden/chaos_smoke.txt")),
        (
            &["chaos", "--matrix", "full", "--seed", "1905"],
            include_str!("../../../tests/golden/chaos_full_1905.txt"),
        ),
        (&["sessions"], include_str!("../../../tests/golden/sessions_default.txt")),
    ] {
        let out = bench(args);
        assert!(out.status.success(), "{args:?}: {}", stderr(&out));
        assert_eq!(String::from_utf8_lossy(&out.stdout), golden, "{args:?}");
    }
}
