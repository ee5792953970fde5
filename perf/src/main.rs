//! `perf` — the wall-clock benchmark of this repository.
//!
//! ```text
//! perf --workload NAME --seed N --seconds S --trace 0|1 [--smoke]
//! perf all       [--seed N] [--seconds S] [--smoke] [--out FILE]
//! perf compare   A.json B.json
//! perf calibrate [--sets N] [--seed N] [--seconds S] [--smoke]
//! ```
//!
//! The first form is one pass of one workload in this process — what the
//! benchmark driver runs (`BENCHMARK.json`, `command`). `--trace 0` is the
//! untraced pass and prints the end-to-end metrics; `--trace 1` is the
//! traced pass and prints the per-layer metrics. The last line of standard
//! output is the result object the driver reads. `README.md` has the rest.

mod compare;
mod e2e;
mod json;
mod layers;
mod pass;
mod spec;
mod stats;
mod workloads;

use std::process::{Command, ExitCode};
use std::time::Instant;

use json::Json;
use pass::Pass;
use spec::{MetricDecl, Spec};
use stats::Summary;
use workloads::{Workload, CALCULATORS};

/// Options shared by every mode.
#[derive(Clone, Debug)]
pub struct Opts {
    pub seed: u64,
    pub seconds: f64,
    pub smoke: bool,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  perf --workload NAME --seed N --seconds S --trace 0|1 [--smoke]\n  \
         perf all [--seed N] [--seconds S] [--smoke] [--out FILE]\n  \
         perf compare A.json B.json\n  \
         perf calibrate [--sets N] [--seed N] [--seconds S] [--smoke]\n\
         workloads: {}",
        Workload::all(false).map(|w| w.name).join(", ")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let spec = Spec::load();
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let mode = match args.first().map(String::as_str) {
        Some("all" | "compare" | "calibrate") => args.remove(0),
        _ => String::new(),
    };

    let mut opts = Opts { seed: 1, seconds: spec.run_seconds as f64, smoke: false };
    let (mut workload, mut trace, mut out, mut sets) = (None, false, None, 2usize);
    let mut files = Vec::new();
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        let mut value = || args.next().unwrap_or_default();
        let ok = match arg.as_str() {
            "--workload" => {
                workload = Some(value());
                true
            }
            "--seed" => value().parse().map(|v| opts.seed = v).is_ok(),
            "--seconds" => {
                value().parse().map(|v: f64| opts.seconds = v).is_ok() && opts.seconds >= 0.0
            }
            "--trace" => match value().as_str() {
                "0" => true,
                "1" => {
                    trace = true;
                    true
                }
                _ => false,
            },
            "--sets" => value().parse().map(|v| sets = v).is_ok(),
            "--out" => {
                out = Some(value());
                true
            }
            "--smoke" => {
                opts.smoke = true;
                true
            }
            file if mode == "compare" && !file.starts_with("--") => {
                files.push(file.to_owned());
                true
            }
            _ => false,
        };
        if !ok {
            eprintln!("bad argument: {arg}");
            return usage();
        }
    }

    match (mode.as_str(), workload) {
        ("", Some(name)) => match Workload::named(&name, opts.smoke) {
            Some(w) => single(&spec, &w, &opts, trace),
            None => {
                eprintln!("unknown workload: {name}");
                usage()
            }
        },
        ("all", None) => match all(&spec, &opts) {
            Ok(result) => {
                if let Some(path) = out {
                    if let Err(e) = std::fs::write(&path, format!("{result}\n")) {
                        eprintln!("cannot write {path}: {e}");
                        return ExitCode::FAILURE;
                    }
                    println!("result file: {path}");
                }
                if compare::failed_ops(&result) == 0 {
                    ExitCode::SUCCESS
                } else {
                    ExitCode::FAILURE
                }
            }
            Err(e) => {
                eprintln!("{e}");
                ExitCode::FAILURE
            }
        },
        ("compare", None) if files.len() == 2 => compare::compare(&spec, &files[0], &files[1]),
        ("calibrate", None) if sets >= 2 => compare::calibrate(&spec, &opts, sets),
        _ => usage(),
    }
}

/// One pass of one workload in this process.
fn single(spec: &Spec, w: &Workload, opts: &Opts, trace: bool) -> ExitCode {
    let nproc = nproc();
    println!(
        "# perf {} seed={} seconds={} trace={} smoke={} nproc={nproc} calculators={CALCULATORS}",
        w.name, opts.seed, opts.seconds, trace as u8, opts.smoke
    );
    if nproc < 2 {
        println!("# WARNING: nproc < 2 — the threaded runs time-share one core");
    }
    let started = Instant::now();
    let mut pass = if trace {
        layers::run(w, opts.seed, opts.seconds, opts.smoke)
    } else {
        e2e::run(w, opts.seed, opts.seconds)
    };
    let wall = started.elapsed().as_secs_f64();
    validate(spec, trace, &mut pass);

    let summaries: Vec<(&MetricDecl, Summary)> = pass
        .metrics
        .iter()
        .filter_map(|(name, samples)| {
            let decl = spec.find(name)?;
            Some((decl, Summary::of(samples, decl.statistic())))
        })
        .collect();
    for (decl, s) in &summaries {
        let tail = s.tail.map(|(p, v)| format!(" p{p:.1}={v}")).unwrap_or_default();
        println!(
            "metric {} {} {} {} ({} is better) median={} n={} min={} max={}{tail}",
            w.name,
            decl.name,
            s.value,
            decl.unit,
            decl.better(),
            s.median,
            s.n,
            s.min,
            s.max
        );
    }
    println!("state_digest {} trace={} {:#018x}", w.name, trace as u8, pass.digest());
    println!("detail {}", detail(w, opts, trace, &pass, &summaries, wall, nproc));

    let metrics = summaries.iter().map(|(decl, s)| {
        let fields = [("value", Json::Num(s.value)), ("unit", Json::str(&decl.unit))];
        (decl.name.clone(), Json::obj(fields))
    });
    let last_line = Json::obj([
        ("correct", Json::Bool(pass.correct())),
        ("attempted", Json::from(pass.attempted)),
        ("failed", Json::from(pass.failed.min(pass.attempted))),
        ("metrics", Json::Obj(metrics.collect())),
    ]);
    println!("{last_line}");
    if pass.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The pass must have measured exactly the metrics `BENCHMARK.json`
/// declares for it, each a finite number and each end-to-end one above 0.
fn validate(spec: &Spec, trace: bool, pass: &mut Pass) {
    let declared = spec.metrics(trace);
    let mut problems = Vec::new();
    for decl in declared {
        let found: Vec<f64> = pass
            .metrics
            .iter()
            .filter(|(n, _)| *n == decl.name)
            .map(|(_, samples)| Summary::of(samples, decl.statistic()).value)
            .collect();
        match found[..] {
            [v] if !v.is_finite() => problems.push(format!("{}: not a finite number", decl.name)),
            [v] if !trace && v <= 0.0 => {
                problems.push(format!("{}: {v} is not above 0", decl.name))
            }
            [_] => {}
            [] => problems.push(format!("{}: declared but not measured", decl.name)),
            _ => problems.push(format!("{}: measured more than once", decl.name)),
        }
    }
    for (name, _) in &pass.metrics {
        if !declared.iter().any(|d| d.name == *name) {
            problems.push(format!("{name}: measured but not declared in BENCHMARK.json"));
        }
    }
    for problem in problems {
        pass.fail(problem);
    }
}

fn detail(
    w: &Workload,
    opts: &Opts,
    trace: bool,
    pass: &Pass,
    summaries: &[(&MetricDecl, Summary)],
    wall: f64,
    nproc: usize,
) -> Json {
    let metrics = summaries.iter().map(|(decl, s)| {
        let mut fields = vec![
            ("value", Json::Num(s.value)),
            ("unit", Json::str(&decl.unit)),
            ("better", Json::str(decl.better())),
            ("median", Json::Num(s.median)),
            ("n", Json::from(s.n as u64)),
            ("min", Json::Num(s.min)),
            ("max", Json::Num(s.max)),
        ];
        if let Some((p, v)) = s.tail {
            fields.push(("tail_percentile", Json::Num(p)));
            fields.push(("tail", Json::Num(v)));
        }
        (decl.name.clone(), Json::obj(fields))
    });
    let mut fields = vec![
        ("workload", Json::str(w.name)),
        ("trace", Json::Bool(trace)),
        ("seed", Json::from(opts.seed)),
        ("seconds", Json::Num(opts.seconds)),
        ("smoke", Json::Bool(opts.smoke)),
        ("nproc", Json::from(nproc as u64)),
        ("wall_s", Json::Num(wall)),
        ("state_digest", Json::str(format!("{:#018x}", pass.digest()))),
        ("correct", Json::Bool(pass.correct())),
        ("ops_attempted", Json::from(pass.attempted)),
        ("ops_failed", Json::from(pass.failed.min(pass.attempted))),
        ("failures", Json::Arr(pass.failures.iter().map(Json::str).collect())),
        ("metrics", Json::Obj(metrics.collect())),
    ];
    if !trace {
        // One sample per round: whoever doubts the summary can redo it.
        let rounds = pass.metrics.iter().map(|(name, samples)| {
            (name.clone(), Json::Arr(samples.iter().map(|&v| Json::Num(v)).collect()))
        });
        fields.push(("peak_rss_per_round", Json::Bool(pass.peak_rss_per_round)));
        fields.push(("rounds", Json::Obj(rounds.collect())));
    }
    Json::obj(fields)
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// First line of a command's standard output, or "unknown".
fn tool_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".to_owned())
}

/// One pass of one workload in a process of its own (so `peak_rss_mb` is
/// per workload and no pass inherits another's heap); returns its `detail`
/// object.
pub fn child_pass(w: &str, opts: &Opts, trace: bool, echo: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this program: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", w, "--seed", &opts.seed.to_string()]);
    cmd.args(["--seconds", &opts.seconds.to_string(), "--trace", if trace { "1" } else { "0" }]);
    if opts.smoke {
        cmd.arg("--smoke");
    }
    // stderr is inherited: failures and notes show up as they happen.
    let output = cmd.stderr(std::process::Stdio::inherit()).output();
    let output = output.map_err(|e| format!("cannot start the {w} pass: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut found = None;
    for line in stdout.lines() {
        if let Some(text) = line.strip_prefix("detail ") {
            found = Some(Json::parse(text)?);
        } else if echo && !line.starts_with('{') {
            println!("{line}");
        }
    }
    found
        .ok_or_else(|| format!("the {w} pass (trace={trace}) printed no result: {}", output.status))
}

/// Every workload, both passes, each in its own process; returns the
/// result-file object.
pub fn all(spec: &Spec, opts: &Opts) -> Result<Json, String> {
    let started = Instant::now();
    let mut workloads = Vec::new();
    for (name, why) in &spec.workloads {
        let t0 = Instant::now();
        workloads.push(Json::obj([
            ("name", Json::str(name)),
            ("why", Json::str(why)),
            ("end_to_end", child_pass(name, opts, false, true)?),
            ("per_layer", child_pass(name, opts, true, true)?),
            ("wall_s", Json::Num(t0.elapsed().as_secs_f64())),
        ]));
    }
    let nproc = nproc();
    let env = Json::obj([
        ("nproc", Json::from(nproc as u64)),
        ("nproc_below_2", Json::Bool(nproc < 2)),
        ("rustc", Json::str(tool_line("rustc", &["-V"]))),
        ("git_commit", Json::str(tool_line("git", &["rev-parse", "HEAD"]))),
        ("calculators", Json::from(CALCULATORS as u64)),
        ("seed", Json::from(opts.seed)),
        ("seconds_per_pass", Json::Num(opts.seconds)),
        ("smoke", Json::Bool(opts.smoke)),
        ("total_wall_s", Json::Num(started.elapsed().as_secs_f64())),
    ]);
    Ok(Json::obj([("env", env), ("workloads", Json::Arr(workloads))]))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The whole benchmark at toy size, in process: every workload, both
    /// passes. Each pass must check out and measure exactly the metrics
    /// `BENCHMARK.json` declares for it — no name missing, none undeclared
    /// (`spec::tests` checks the declared names against the allowed
    /// characters, so the measured ones need no check of their own).
    #[test]
    fn every_pass_measures_exactly_the_declared_metrics() {
        let spec = Spec::load();
        let declared: Vec<&str> = spec.workloads.iter().map(|(name, _)| name.as_str()).collect();
        assert_eq!(declared, Workload::all(true).map(|w| w.name));
        for w in Workload::all(true) {
            for trace in [false, true] {
                let mut pass =
                    if trace { layers::run(&w, 5, 0.0, true) } else { e2e::run(&w, 5, 0.0) };
                validate(&spec, trace, &mut pass);
                assert!(pass.correct(), "{} trace={trace}: {:?}", w.name, pass.failures);
                assert_eq!(pass.metrics.len(), spec.metrics(trace).len());
                assert_ne!(pass.digest(), Pass::default().digest());
            }
        }
    }

    #[test]
    fn validation_flags_missing_undeclared_and_non_finite_metrics() {
        let spec = Spec::load();
        let mut pass = Pass { attempted: 1, ..Pass::default() };
        for decl in &spec.end_to_end {
            pass.value(&decl.name, 1.0);
        }
        validate(&spec, false, &mut pass);
        assert!(pass.correct(), "{:?}", pass.failures);

        pass.metrics.pop();
        pass.value("not.declared", 1.0);
        pass.metrics[0].1 = vec![f64::NAN];
        pass.metrics[1].1 = vec![0.0];
        validate(&spec, false, &mut pass);
        assert_eq!(pass.failed, 4, "{:?}", pass.failures);
    }
}
