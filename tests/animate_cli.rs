//! `animate` command-line contract: what it refuses and what it must not
//! claim.

use std::process::Command;

fn animate(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_animate")).args(args).output().expect("animate runs")
}

/// Only the threaded executor rasterizes, and only into `--render DIR`;
/// asking for frames or streaks anywhere else is a usage error, not a run
/// that ends with "frames written to DIR" or silently draws nothing.
#[test]
fn render_flags_need_the_threaded_executor() {
    let dir = std::env::temp_dir().join("animate_cli_never_written");
    let dir = dir.to_str().expect("utf-8 temp dir");
    for args in [
        &["snow", "--executor", "virtual", "--frames", "2", "--render", dir][..],
        &["snow", "--executor", "sequential", "--frames", "2", "--render", dir],
        &["snow", "--executor", "virtual", "--frames", "2", "--streaks"],
        &["snow", "--frames", "2", "--streaks"],
    ] {
        let out = animate(args);
        assert_eq!(out.status.code(), Some(2), "{args:?} must be a usage error");
        assert!(out.stdout.is_empty(), "{args:?} must not run: {:?}", out.stdout);
        assert!(String::from_utf8_lossy(&out.stderr).contains("usage: animate"));
    }
    assert!(!std::path::Path::new(dir).exists());
}

/// `--executor` accepts exactly the three executors.
#[test]
fn executor_flag_accepts_exactly_three_names() {
    for executor in ["virtual", "threaded", "sequential"] {
        let out = animate(&[
            "snow",
            "--executor",
            executor,
            "--systems",
            "1",
            "--particles",
            "50",
            "--frames",
            "2",
            "--procs",
            "2",
        ]);
        assert!(out.status.success(), "{executor}: {}", String::from_utf8_lossy(&out.stderr));
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains("2 frames"), "{executor}: {stdout}");
    }
    assert_eq!(animate(&["snow", "--executor", "queue"]).status.code(), Some(2));
}

/// A calculator count of zero is a usage error, not a quiet run on one.
#[test]
fn zero_procs_is_a_usage_error() {
    for executor in ["virtual", "threaded"] {
        let out = animate(&["snow", "--executor", executor, "--frames", "2", "--procs", "0"]);
        assert_eq!(out.status.code(), Some(2), "{executor}: --procs 0 must be a usage error");
        assert!(out.stdout.is_empty(), "{executor} must not run: {:?}", out.stdout);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("--procs") && stderr.contains("usage: animate"), "{stderr}");
    }
}

/// A `--render` directory that cannot be created fails the run with a
/// message and exit 1 — no panic, and no claim that frames were written.
#[test]
fn unwritable_render_dir_is_an_error_not_a_panic() {
    let blocker = std::env::temp_dir().join(format!("animate_cli_blocker_{}", std::process::id()));
    std::fs::write(&blocker, b"a file, so no directory can be made under it").expect("temp file");
    let dir = blocker.join("frames");
    let dir = dir.to_str().expect("utf-8 temp dir");
    let out = animate(&[
        "snow",
        "--systems",
        "1",
        "--particles",
        "50",
        "--frames",
        "2",
        "--procs",
        "2",
        "--render",
        dir,
    ]);
    std::fs::remove_file(&blocker).expect("remove temp file");
    assert_eq!(out.status.code(), Some(1), "{}", String::from_utf8_lossy(&out.stderr));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.starts_with("animate: ") && !stderr.contains("panicked"), "{stderr}");
    assert!(!String::from_utf8_lossy(&out.stdout).contains("frames written"));
}
