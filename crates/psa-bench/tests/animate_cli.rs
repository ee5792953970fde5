//! `bench animate` command-line contract: what it runs, what it refuses
//! and what it must not claim.

mod common;

use common::bench;
use std::path::Path;
use std::process::Output;

/// A two-frame snow of 50 particles on two calculators, with `extra` flags.
fn tiny_snow(extra: &[&str]) -> Output {
    let tiny = ["animate", "snow", "--systems", "1", "--particles", "50", "--frames", "2"];
    bench(&[&tiny[..], &["--procs", "2"], extra].concat())
}

/// Only the threaded executor rasterizes, and only into `--render DIR`;
/// asking for frames or streaks anywhere else is a usage error, not a run
/// that ends with "frames written to DIR" or silently draws nothing.
#[test]
fn render_flags_need_the_threaded_executor() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("animate_cli_never_written");
    let dir = dir.to_str().expect("utf-8 temp dir");
    for (args, why) in [
        (&["animate", "snow", "--executor", "virtual", "--render", dir][..], "no rasterizer"),
        (&["animate", "snow", "--executor", "sequential", "--render", dir], "no rasterizer"),
        (&["animate", "snow", "--executor", "virtual", "--streaks"], "no rasterizer"),
        (&["animate", "snow", "--frames", "2", "--streaks"], "`--streaks` without `--render`"),
    ] {
        common::assert_usage_error(args, why);
    }
    assert!(!Path::new(dir).exists(), "a refused animation created {dir}");
}

/// `--executor` accepts exactly the three executors, and each runs.
#[test]
fn executor_flag_accepts_exactly_three_names() {
    for executor in ["virtual", "threaded", "sequential"] {
        let out = tiny_snow(&["--executor", executor]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{executor}: {stderr}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains("2 frames") && stdout.contains("frame times: p50 "), "{stdout}");
    }
    common::assert_usage_error(&["animate", "snow", "--executor", "queue"], "no such executor");
}

/// A calculator count of zero is a usage error, not a quiet run on one.
#[test]
fn zero_procs_is_a_usage_error() {
    for executor in ["virtual", "threaded"] {
        let args = ["animate", "snow", "--procs", "0", "--executor", executor];
        common::assert_usage_error(&args, "no calculators");
    }
}

/// The threaded executor writes one PPM per frame into `--render DIR`.
#[test]
fn threaded_render_writes_one_ppm_per_frame() {
    let tmp = Path::new(env!("CARGO_TARGET_TMPDIR"));
    let frames = tmp.join(format!("animate_cli_frames_{}", std::process::id()));
    let out = tiny_snow(&["--render", frames.to_str().expect("utf-8 temp dir")]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let mut written: Vec<_> = std::fs::read_dir(&frames).expect("frames dir").flatten().collect();
    written.sort_by_key(|e| e.file_name());
    let names: Vec<_> = written.iter().map(|e| e.file_name().into_string().unwrap()).collect();
    std::fs::remove_dir_all(&frames).expect("frames are removable");
    assert_eq!(names, ["snow_0000.ppm", "snow_0001.ppm"]);
}

/// A `--render` directory that cannot be created fails the run with a
/// message and exit 1 — no panic, and no claim that frames were written.
#[test]
fn unwritable_render_dir_is_an_error_not_a_panic() {
    let tmp = Path::new(env!("CARGO_TARGET_TMPDIR"));
    let blocker = tmp.join(format!("animate_cli_blocker_{}", std::process::id()));
    std::fs::write(&blocker, b"a file, so no directory can be made under it").expect("temp file");
    let out = tiny_snow(&["--render", blocker.join("frames").to_str().expect("utf-8 temp dir")]);
    std::fs::remove_file(&blocker).expect("remove temp file");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("bench animate: ") && !stderr.contains("panicked"), "{stderr}");
    assert!(!String::from_utf8_lossy(&out.stdout).contains("frames written"));
}
