//! `chaos` command-line contract: bad input prints what was wrong and the
//! usage line, exits 2, and runs nothing.

use std::process::{Command, Output};

fn chaos(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_chaos")).args(args).output().expect("chaos runs")
}

#[test]
fn bad_flags_exit_2_with_usage() {
    for (args, flag) in [
        (&["--frames", "x"][..], "--frames"),
        (&["--seed", "x"], "--seed"),
        (&["--calculators", "1"], "--calculators"),
        (&["--calculators"], "--calculators"),
        (&["--matrix", "big"], "big"),
        (&["--bogus"], "--bogus"),
        // Too short for the kill scenarios to be declared: the FAIL cells
        // would come from the run length, not from the protocol.
        (&["--frames", "7"], "at least 8"),
        (&["--frames", "3"], "at least 8"),
        (&["--matrix", "full", "--seed", "1905", "--frames", "8"], "at least 9"),
    ] {
        let out = chaos(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} must not run: {:?}", out.stdout);
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert!(stderr.contains(flag), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: chaos"), "{args:?}: {stderr}");
    }
}
