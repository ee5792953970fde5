//! `perf compare` and `perf calibrate`: reading result files.
//!
//! `compare` judges build B against build A, one row per (workload,
//! metric). `calibrate` runs one build the way the benchmark driver does,
//! several times over, and checks that the benchmark repeats within its
//! own bounds — it is the tool the bounds in `BENCHMARK.json` were chosen
//! with.

use std::process::ExitCode;
use std::time::Instant;

use crate::json::Json;
use crate::spec::{MetricDecl, Spec};
use crate::stats::{median, spread};
use crate::Opts;

/// Untraced runs per workload in one calibration set: what the driver's
/// acceptance rule is computed over.
const SEEDS: u64 = 10;
const SMOKE_SEEDS: u64 = 3;
/// Per-layer metrics have no bound in `BENCHMARK.json` and gate nothing;
/// `compare` still needs a width below which a difference reads as "same".
const PER_LAYER_NOMINAL: f64 = 0.10;

/// One metric of one pass, as a result file stores it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Row {
    pub value: f64,
    pub min: f64,
    pub max: f64,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    /// The values differ by more than the bound, but the two sides' rep
    /// ranges overlap by more than the bound too: more runs are needed.
    Unresolved,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// How much better `b` is than `a`, as a share of `a` (negative = worse).
fn gain(decl: &MetricDecl, a: f64, b: f64) -> f64 {
    let change = (b - a) / a.abs();
    if decl.higher_is_better {
        change
    } else {
        -change
    }
}

pub fn verdict(decl: &MetricDecl, a: &Row, b: &Row) -> Verdict {
    let by_direction = |g: f64| if g > 0.0 { Verdict::Better } else { Verdict::Worse };
    if decl.is_count() {
        // Counts repeat exactly: any difference is a difference.
        return if a.value == b.value {
            Verdict::Same
        } else {
            by_direction(if decl.higher_is_better { b.value - a.value } else { a.value - b.value })
        };
    }
    let bound = decl.bound.unwrap_or(PER_LAYER_NOMINAL);
    let g = gain(decl, a.value, b.value);
    if g.is_nan() || g.abs() <= bound {
        return Verdict::Same;
    }
    let overlap = (a.max.min(b.max) - a.min.max(b.min)).max(0.0) / a.value.abs();
    if overlap > bound {
        Verdict::Unresolved
    } else {
        by_direction(g)
    }
}

fn row(metric: &Json) -> Option<Row> {
    let num = |key: &str| metric.get(key).and_then(Json::as_f64);
    Some(Row { value: num("value")?, min: num("min")?, max: num("max")? })
}

/// `(workload, pass key, detail)` for every pass in a result file.
fn passes(result: &Json) -> Vec<(&str, &'static str, &Json)> {
    let mut out = Vec::new();
    for w in result.get("workloads").and_then(Json::as_arr).unwrap_or_default() {
        let name = w.get("name").and_then(Json::as_str).unwrap_or("?");
        for key in ["end_to_end", "per_layer"] {
            if let Some(detail) = w.get(key) {
                out.push((name, key, detail));
            }
        }
    }
    out
}

/// Failed ops over every pass of a result file (a pass that reports no
/// count is itself a failure).
pub fn failed_ops(result: &Json) -> u64 {
    passes(result)
        .iter()
        .map(|(_, _, d)| d.get("ops_failed").and_then(Json::as_f64).map_or(1, |f| f as u64))
        .sum()
}

fn digest(detail: &Json) -> Option<&str> {
    detail.get("state_digest").and_then(Json::as_str)
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

pub fn compare(spec: &Spec, a_path: &str, b_path: &str) -> ExitCode {
    let (a, b) = match (load(a_path), load(b_path)) {
        (Ok(a), Ok(b)) => (a, b),
        (a, b) => {
            for e in [a.err(), b.err()].into_iter().flatten() {
                eprintln!("{e}");
            }
            return ExitCode::from(2);
        }
    };
    println!("A = {a_path}\nB = {b_path}");
    println!(
        "{:<17} {:<46} {:>14} {:>14} {:<9} {:>17} {:>6}  verdict",
        "workload", "metric", "A", "B", "unit", "B/A (base A)", "bound"
    );
    let mut worse = 0;
    let b_passes = passes(&b);
    for (workload, key, a_detail) in passes(&a) {
        let Some((_, _, b_detail)) = b_passes.iter().find(|(w, k, _)| (*w, *k) == (workload, key))
        else {
            println!("{workload:<17} ({key}) missing from B");
            continue;
        };
        if digest(a_detail) != digest(b_detail) {
            println!(
                "{workload:<17} {key}: state_digest differs ({} vs {}) — simulated state changed",
                digest(a_detail).unwrap_or_default(),
                digest(b_detail).unwrap_or_default()
            );
        }
        let failed = |d: &Json| d.get("ops_failed").and_then(Json::as_f64).unwrap_or(f64::NAN);
        if failed(a_detail) != 0.0 || failed(b_detail) != 0.0 {
            println!(
                "{workload:<17} {key}: ops_failed A={} B={}",
                failed(a_detail),
                failed(b_detail)
            );
        }
        for decl in spec.metrics(key == "per_layer") {
            let find = |d: &Json| d.get("metrics").and_then(|m| m.get(&decl.name)).and_then(row);
            let (Some(ra), Some(rb)) = (find(a_detail), find(b_detail)) else {
                println!("{workload:<17} {:<46} missing on one side", decl.name);
                continue;
            };
            let mut v = verdict(decl, &ra, &rb);
            // A side that could not reset `VmHWM` measured the peak since
            // its process started: another quantity under the same name.
            let per_round = |d: &Json| d.get("peak_rss_per_round") == Some(&Json::Bool(true));
            if decl.name == "peak_rss_mb" && per_round(a_detail) != per_round(b_detail) {
                println!("{workload:<17} peak_rss_mb: per-round peak on one side only");
                v = Verdict::Unresolved;
            }
            if v == Verdict::Worse && decl.bound.is_some() {
                worse += 1;
            }
            let bound = decl.bound.map_or("-".to_owned(), |b| format!("{:.0}%", b * 100.0));
            println!(
                "{workload:<17} {:<46} {:>14.6e} {:>14.6e} {:<9} {:>8.4} of {:<8.3e} {bound:>6}  {}",
                decl.name,
                ra.value,
                rb.value,
                decl.unit,
                rb.value / ra.value,
                ra.value,
                v.name()
            );
        }
    }
    if worse > 0 {
        println!("{worse} end-to-end metric(s) worse than their bound");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// One workload in one calibration set: the untraced passes, one per seed,
/// and the traced pass under the first seed.
struct SetRuns {
    untraced: Vec<Json>,
    traced: Json,
}

/// `field` ("value", "median") of one metric of a pass detail.
fn metric_field(detail: &Json, metric: &str, field: &str) -> Option<f64> {
    detail.get("metrics")?.get(metric)?.get(field)?.as_f64()
}

fn value_of(detail: &Json, metric: &str) -> Option<f64> {
    metric_field(detail, metric, "value")
}

/// Run the benchmark the way its driver does and apply the driver's rule.
///
/// A set is, per workload, [`SEEDS`] untraced runs back to back under
/// `seed`, `seed + 1`, … and one traced run under `seed`; `sets` sets are
/// run, all with the same seeds. For every end-to-end metric the spread of
/// a set (inter-quartile range of its runs' values, as a share of their
/// median) must stay within the bound — `setup_s` is exempt, as it is for
/// the driver — and no later set's median may be worse than the first
/// set's by more than the bound. Aim for spreads below a third of the
/// bound. Simulated state must not depend on when it was computed: every
/// (workload, seed) must give the same `state_digest` in every set, and the
/// traced passes the same digest and the same counts.
pub fn calibrate(spec: &Spec, opts: &Opts, sets: usize) -> ExitCode {
    let seeds = if opts.smoke { SMOKE_SEEDS } else { SEEDS };
    let mut results: Vec<Vec<SetRuns>> = Vec::new();
    for set in 0..sets {
        let mut runs = Vec::new();
        for (name, _) in &spec.workloads {
            let pass = |k: u64, trace: bool| {
                let started = Instant::now();
                let run = Opts { seed: opts.seed + k, ..opts.clone() };
                let detail = crate::child_pass(name, &run, trace, false);
                println!(
                    "# set {} of {sets}: {name} seed {} trace={}: {:.1} s",
                    set + 1,
                    run.seed,
                    trace as u8,
                    started.elapsed().as_secs_f64()
                );
                detail
            };
            let untraced: Result<Vec<Json>, String> = (0..seeds).map(|k| pass(k, false)).collect();
            match (untraced, pass(0, true)) {
                (Ok(untraced), Ok(traced)) => runs.push(SetRuns { untraced, traced }),
                (Err(e), _) | (_, Err(e)) => {
                    eprintln!("{e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        results.push(runs);
    }

    let mut failures: Vec<String> = Vec::new();
    let ops_failed = |d: &Json| d.get("ops_failed").and_then(Json::as_f64).map_or(1, |f| f as u64);
    // The last column is what the spread would be had each run reported
    // the median of its rounds instead of `stats::Summary`'s value.
    println!(
        "\n{:<17} {:<18} {:>13} {:>28} {:>11} {:>5}  {:<31} spread of the rounds' medians",
        "workload",
        "metric",
        "median, set 1",
        "spread (IQR/median) per set",
        "worst shift",
        "bound",
        "verdict"
    );
    for (i, (workload, _)) in spec.workloads.iter().enumerate() {
        let first = &results[0][i];
        for (set, runs) in results.iter().map(|r| &r[i]).enumerate() {
            let failed: u64 = runs.untraced.iter().chain([&runs.traced]).map(ops_failed).sum();
            if failed > 0 {
                failures.push(format!("{workload}, set {}: {failed} ops failed", set + 1));
            }
            let same_state =
                runs.untraced.iter().zip(&first.untraced).all(|(a, b)| digest(a) == digest(b))
                    && digest(&runs.traced) == digest(&first.traced);
            if !same_state {
                failures.push(format!(
                    "{workload}: state_digest differs from set 1 in set {}",
                    set + 1
                ));
            }
            for decl in spec.per_layer.iter().filter(|d| d.is_count()) {
                let (a, b) =
                    (value_of(&first.traced, &decl.name), value_of(&runs.traced, &decl.name));
                if a.is_none() || a != b {
                    failures.push(format!(
                        "{workload} {}: count {a:?} in set 1, {b:?} in set {}",
                        decl.name,
                        set + 1
                    ));
                }
            }
        }
        for decl in &spec.end_to_end {
            let per_set: Vec<Vec<f64>> = results
                .iter()
                .map(|r| r[i].untraced.iter().filter_map(|d| value_of(d, &decl.name)).collect())
                .collect();
            if per_set.iter().any(|values: &Vec<f64>| values.len() as u64 != seeds) {
                failures.push(format!("{workload} {}: missing from a run", decl.name));
                continue;
            }
            let bound = decl.bound.unwrap_or(f64::NAN);
            let spreads: Vec<f64> = per_set.iter().map(|v| spread(v).unwrap_or(0.0)).collect();
            let widest = spreads.iter().copied().fold(0.0, f64::max);
            let base = median(&per_set[0]);
            let shift =
                per_set[1..].iter().map(|v| -gain(decl, base, median(v))).fold(0.0, f64::max);
            let gated = decl.name != "setup_s";
            let ok = shift <= bound && (!gated || widest <= bound);
            let note = match (ok, gated && widest > bound / 3.0) {
                (false, _) => "FAIL",
                (true, true) => "ok (above a third of the bound)",
                (true, false) => "ok",
            };
            if !ok {
                failures.push(format!("{workload} {}: outside its bound", decl.name));
            }
            let percent = |shares: Vec<f64>| {
                let shares: Vec<String> =
                    shares.iter().map(|s| format!("{:.1}%", s * 100.0)).collect();
                shares.join(" ")
            };
            let of_medians = results.iter().map(|r| {
                let medians: Vec<f64> = (r[i].untraced.iter())
                    .filter_map(|d| metric_field(d, &decl.name, "median"))
                    .collect();
                spread(&medians).unwrap_or(f64::NAN)
            });
            println!(
                "{workload:<17} {:<18} {base:>13.6e} {:>28} {:>10.1}% {:>4.0}%  {note:<31} {}",
                decl.name,
                percent(spreads),
                shift * 100.0,
                bound * 100.0,
                percent(of_medians.collect())
            );
        }
    }
    for failure in &failures {
        println!("FAIL: {failure}");
    }
    if !failures.is_empty() {
        return ExitCode::FAILURE;
    }
    println!("all sets agree within the bounds");
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decl(unit: &str, higher: bool, bound: Option<f64>) -> MetricDecl {
        MetricDecl { name: "m".into(), unit: unit.into(), higher_is_better: higher, bound }
    }

    fn row(value: f64, min: f64, max: f64) -> Row {
        Row { value, min, max }
    }

    #[test]
    fn differences_within_the_bound_are_the_same() {
        let d = decl("ms", false, Some(0.10));
        assert_eq!(verdict(&d, &row(100.0, 95.0, 105.0), &row(108.0, 100.0, 115.0)), Verdict::Same);
        assert_eq!(verdict(&d, &row(100.0, 95.0, 105.0), &row(92.0, 90.0, 99.0)), Verdict::Same);
    }

    #[test]
    fn direction_decides_better_and_worse() {
        let lower = decl("ms", false, Some(0.10));
        let higher = decl("1/s", true, Some(0.10));
        let (a, slow, fast) =
            (row(100.0, 98.0, 102.0), row(130.0, 125.0, 135.0), row(70.0, 68.0, 72.0));
        assert_eq!(verdict(&lower, &a, &slow), Verdict::Worse);
        assert_eq!(verdict(&lower, &a, &fast), Verdict::Better);
        assert_eq!(verdict(&higher, &a, &slow), Verdict::Better);
        assert_eq!(verdict(&higher, &a, &fast), Verdict::Worse);
    }

    #[test]
    fn overlapping_rep_ranges_leave_a_difference_unresolved() {
        let d = decl("ms", false, Some(0.10));
        // Values 20 % apart, but the ranges share 30 % of A's value.
        let (a, b) = (row(100.0, 80.0, 140.0), row(120.0, 110.0, 150.0));
        assert_eq!(verdict(&d, &a, &b), Verdict::Unresolved);
        // Same values, ranges sharing only 5 %: resolved.
        let (a, b) = (row(100.0, 95.0, 115.0), row(120.0, 110.0, 125.0));
        assert_eq!(verdict(&d, &a, &b), Verdict::Worse);
    }

    #[test]
    fn counts_compare_for_equality() {
        let d = decl("count", false, None);
        assert_eq!(
            verdict(&d, &row(2019051.0, 2019051.0, 2019051.0), &row(2019051.0, 0.0, 0.0)),
            Verdict::Same
        );
        assert_eq!(
            verdict(&d, &row(2019051.0, 0.0, 0.0), &row(2019050.0, 0.0, 0.0)),
            Verdict::Better
        );
        assert_eq!(
            verdict(&d, &row(2019051.0, 0.0, 0.0), &row(2019052.0, 0.0, 0.0)),
            Verdict::Worse
        );
    }

    #[test]
    fn per_layer_metrics_use_the_nominal_width() {
        let d = decl("ns/particle", false, None);
        assert_eq!(verdict(&d, &row(10.0, 9.9, 10.1), &row(10.5, 10.4, 10.6)), Verdict::Same);
        assert_eq!(verdict(&d, &row(10.0, 9.9, 10.1), &row(12.0, 11.9, 12.1)), Verdict::Worse);
    }

    #[test]
    fn result_files_are_walked_by_workload_and_pass() {
        let file = Json::parse(
            r#"{"env": {}, "workloads": [
                {"name": "w1", "end_to_end": {"ops_failed": 0}, "per_layer": {"ops_failed": 2}},
                {"name": "w2", "end_to_end": {}}]}"#,
        )
        .expect("parses");
        let found: Vec<(&str, &str)> = passes(&file).iter().map(|(w, k, _)| (*w, *k)).collect();
        assert_eq!(found, [("w1", "end_to_end"), ("w1", "per_layer"), ("w2", "end_to_end")]);
        // A pass without a count is counted as one failure.
        assert_eq!(failed_ops(&file), 3);
    }
}
