//! What the `bench` command-line tests share: running the binary and the
//! usage-error contract every subcommand keeps.

use std::process::{Command, Output};

pub fn bench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_bench")).args(args).output().expect("bench runs")
}

/// Malformed input is a usage error (exit 2, usage on stderr, nothing run),
/// never a panic from the parser or from an assert deep in another crate;
/// the `error:` line names what was wrong: a token quoted in `why`, else the
/// first flag given, else the last argument.
pub fn assert_usage_error(args: &[&str], why: &str) {
    let out = bench(args);
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{why} {args:?}: {err}");
    assert!(out.stdout.is_empty(), "{why} {args:?} must not run");
    assert!(err.contains("error: ") && err.contains("usage:"), "{why} {args:?}: {err}");
    assert!(!err.contains("panicked"), "{why} {args:?}: {err}");
    let line = err.lines().find(|l| l.starts_with("error: ")).unwrap_or_default();
    let flag = args.iter().find(|a| a.starts_with("--")).or(args.last());
    let named = why.split('`').nth(1).or(flag.copied()).unwrap_or_default();
    assert!(line.contains(named), "{why} {args:?}: {err}");
}
