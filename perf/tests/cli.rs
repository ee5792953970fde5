//! Drives the real `perf` binary at toy size: the driver's single-pass
//! form, `all` (every workload, both passes, one process each), `compare`
//! and `calibrate`. Numbers are meaningless at this size; what is tested is
//! that every flow runs, checks its outputs and keeps its output contract.

use std::path::PathBuf;
use std::process::{Command, Output};
use std::time::Instant;

const WORKLOADS: [&str; 4] = ["snow_render", "fountain_compute", "desim_1024", "pool_sessions"];

fn perf(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_perf")).args(args).output().expect("perf starts")
}

fn stdout(output: &Output) -> String {
    String::from_utf8(output.stdout.clone()).expect("UTF-8 output")
}

fn scratch(name: &str) -> String {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name).to_string_lossy().into_owned()
}

#[test]
fn a_single_pass_ends_with_the_result_object_the_driver_reads() {
    for trace in ["0", "1"] {
        let args =
            ["--workload", "pool_sessions", "--seed", "7", "--seconds", "0", "--trace", trace];
        let output = perf(&[&args[..], &["--smoke"]].concat());
        assert!(
            output.status.success(),
            "trace={trace}: {}",
            String::from_utf8_lossy(&output.stderr)
        );
        let text = stdout(&output);
        let last = text.lines().last().expect("some output");
        assert!(last.starts_with("{\"correct\": true, \"attempted\": "), "{last}");
        assert!(last.contains("\"failed\": 0, \"metrics\": {"), "{last}");
        let expected = if trace == "0" {
            "\"setup_s\": {\"value\": "
        } else {
            "\"desim.events\": {\"value\": "
        };
        assert!(last.contains(expected), "{last}");
        assert!(text.contains("\nstate_digest pool_sessions "), "{text}");
    }
}

#[test]
fn the_same_seed_gives_the_same_state_and_another_seed_another() {
    let digest = |seed: &str| {
        let output = perf(&[
            "--workload",
            "desim_1024",
            "--seed",
            seed,
            "--seconds",
            "0",
            "--trace",
            "0",
            "--smoke",
        ]);
        assert!(output.status.success());
        let text = stdout(&output);
        text.lines().find(|l| l.starts_with("state_digest ")).expect("a digest line").to_owned()
    };
    assert_eq!(digest("3"), digest("3"));
    assert_ne!(digest("3"), digest("4"));
}

#[test]
fn bad_invocations_fail_without_a_result() {
    for args in [
        &["--workload", "no_such_workload", "--seed", "1", "--seconds", "0", "--trace", "0"][..],
        &["--workload", "snow_render", "--trace", "2"],
        &["--workload", "snow_render", "--seconds", "-1"],
        &["compare", "only-one.json"],
        &["compare", "/nonexistent/a.json", "/nonexistent/b.json"],
        &["calibrate", "--sets", "1"],
        &[],
    ] {
        let output = perf(args);
        assert!(!output.status.success(), "{args:?} should fail");
        assert!(!stdout(&output).contains("\"correct\""), "{args:?} printed a result");
    }
}

#[test]
fn all_runs_every_workload_in_seconds_and_compare_reads_the_result() {
    let file = scratch("smoke.json");
    let started = Instant::now();
    let output = perf(&["all", "--smoke", "--seconds", "0", "--out", &file]);
    let took = started.elapsed().as_secs_f64();
    assert!(output.status.success(), "{}", String::from_utf8_lossy(&output.stderr));
    assert!(took < 10.0, "the smoke run took {took:.1} s");

    let text = stdout(&output);
    let result = std::fs::read_to_string(&file).expect("result file written");
    for w in WORKLOADS {
        assert!(text.contains(&format!("metric {w} setup_s ")), "{w}: no end-to-end metrics");
        assert!(
            text.contains(&format!("metric {w} core.statehash.ns_per_particle ")),
            "{w}: no probes"
        );
        assert!(result.contains(&format!("\"name\": \"{w}\"")), "{w} missing from the result file");
    }
    assert_eq!(result.matches("\"ops_failed\": 0").count(), 2 * WORKLOADS.len());
    for key in [
        "\"nproc\": ",
        "\"rustc\": ",
        "\"git_commit\": ",
        "\"calculators\": 2",
        "\"total_wall_s\": ",
    ] {
        assert!(result.contains(key), "environment block lacks {key}");
    }

    // A result compared with itself: every row is the same, nothing is worse.
    let output = perf(&["compare", &file, &file]);
    assert!(output.status.success());
    let table = stdout(&output);
    assert!(table.lines().filter(|l| l.ends_with(" same")).count() > 4 * 70, "{table}");
    for verdict in [" worse", " better", " unresolved", "missing", "differs"] {
        assert!(!table.contains(verdict), "{verdict:?} in a self-comparison:\n{table}");
    }

    // A side whose kernel refused the VmHWM reset measured another quantity.
    let other = scratch("smoke_no_reset.json");
    let edited = result.replace("\"peak_rss_per_round\": true", "\"peak_rss_per_round\": false");
    assert_ne!(edited, result, "the untraced passes carry the flag");
    std::fs::write(&other, edited).expect("scratch file written");
    let table = stdout(&perf(&["compare", &file, &other]));
    assert_eq!(table.matches("per-round peak on one side only").count(), WORKLOADS.len());
    assert_eq!(table.lines().filter(|l| l.ends_with(" unresolved")).count(), WORKLOADS.len());
}

#[test]
fn calibrate_runs_the_drivers_procedure_and_finds_the_same_state_in_every_set() {
    // Two sets of three seeds per workload, plus a traced pass each. Counts
    // and digests must be identical between the sets; timing bounds are
    // not asserted at toy size — a 0.1 ms run jitters.
    let output = perf(&["calibrate", "--sets", "2", "--smoke", "--seconds", "0"]);
    let report = stdout(&output);
    for w in WORKLOADS {
        assert_eq!(report.matches(&format!(": {w} seed ")).count(), 2 * 4, "{report}");
        let rows = report.lines().filter(|l| l.starts_with(&format!("{w} "))).count();
        assert_eq!(rows, 7, "one row per end-to-end metric of {w}:\n{report}");
    }
    assert!(report.contains("spread (IQR/median) per set"), "{report}");
    for broken in ["state_digest differs", ": count ", "ops failed", "missing from a run"] {
        assert!(!report.contains(broken), "{broken:?} in\n{report}");
    }
}
