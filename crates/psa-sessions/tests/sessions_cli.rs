//! `sessions` command-line contract: bad input is a usage error that names
//! the flag, never a panic.

use std::process::{Command, Output};

fn sessions(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_sessions")).args(args).output().expect("sessions runs")
}

/// Zero lanes, slices, slots or per-tenant caps, an unparsable number and
/// a missing scene name each exit 2 with one line on stderr naming the
/// flag, before the pool is built.
#[test]
fn bad_flags_exit_2_naming_the_flag() {
    for (args, flag) in [
        (&["--workers", "0"][..], "--workers"),
        (&["--slice", "0"], "--slice"),
        (&["--per-tenant", "0"], "--per-tenant"),
        (&["--max-in-flight", "0"], "--max-in-flight"),
        (&["--tenants", "0"], "--tenants"),
        (&["--frames", "abc"], "--frames"),
        (&["--frames"], "--frames"),
        (&["--scene"], "--scene"),
    ] {
        let out = sessions(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} must not run: {:?}", out.stdout);
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
        assert!(stderr.contains(flag), "{args:?}: {stderr}");
    }
}

/// A small valid run still completes every session it admits.
#[test]
fn small_run_completes() {
    let out = sessions(&["--sessions", "3", "--frames", "2", "--particles", "20"]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("completed    3"), "{stdout}");
}
