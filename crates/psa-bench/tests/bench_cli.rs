//! `bench` command-line contract: the subcommands it has, what it refuses,
//! and that what it writes is the committed artifact.

use std::process::{Command, Output};

fn bench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_bench")).args(args).output().expect("bench runs")
}

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

/// The subcommand list is pinned: `tables` plus one per committed artifact.
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
    assert_eq!(listed, ["tables", "3", "5", "6", "7", "8"], "{usage}");
    assert!(
        usage.contains("[table1|table2|table3|text-snow|text-fountain|reductions|all]"),
        "{usage}"
    );
    for id in [3, 5, 6, 7, 8] {
        assert!(usage.contains(&format!("[--out BENCH_{id}.json]")), "{usage}");
    }
}

/// Malformed input is a usage error (exit 2, usage on stderr, nothing run),
/// never a panic from the parser or from an assert deep in another crate.
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
    ] {
        let out = bench(args);
        let err = stderr(&out);
        assert_eq!(out.status.code(), Some(2), "{why} {args:?}: {err}");
        assert!(out.stdout.is_empty(), "{why} {args:?} must not run");
        assert!(err.contains("error: ") && err.contains("usage:"), "{why} {args:?}: {err}");
        assert!(!err.contains("panicked"), "{why} {args:?}: {err}");
    }
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
