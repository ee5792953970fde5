//! The statistics every reported number goes through.
//!
//! A timing is reported as its best quartile (see [`Summary`]) and its
//! median, with the sample count, the range, and — when there are enough
//! samples — the highest percentile that still has at least ten samples
//! beyond it (a tail read from fewer is one outlier's value, not a
//! percentile).

/// Samples needed beyond a percentile before it is reported.
pub const TAIL_SAMPLES: usize = 10;

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the two middle values for an even count); NaN when
/// empty, so a metric that measured nothing fails the finite-value gate
/// instead of reading as zero.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile, `q` in `0.0..=100.0`; NaN when empty.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        return f64::NAN;
    }
    let rank = ((q / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The highest percentile with at least [`TAIL_SAMPLES`] samples beyond
/// it, as `(percentile, value)`; `None` when there are too few samples for
/// any percentile above the median to qualify.
pub fn tail(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    if n < 2 * TAIL_SAMPLES + 1 {
        return None;
    }
    let v = sorted(values);
    // Exactly TAIL_SAMPLES samples lie above index n - TAIL_SAMPLES - 1.
    let idx = n - TAIL_SAMPLES - 1;
    Some((100.0 * (idx + 1) as f64 / n as f64, v[idx]))
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the "exclusive" method) — the driver judges run-to-run
/// spread with exactly this, so `calibrate` must too. `None` below two
/// values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Inter-quartile range as a share of the median.
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    Some((q3 - q1) / median(values).abs())
}

/// How a run's samples become the one value it reports.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Statistic {
    /// 25th percentile: the best quartile of a time.
    LowerQuartile,
    /// 75th percentile: the best quartile of a rate.
    UpperQuartile,
    Mean,
}

/// One reported number and what a reader needs to judge it.
///
/// A time or a rate is reported as the **best quartile** of its samples.
/// Other tenants of the host only ever slow a round down, in bursts that
/// last up to a whole run, so the median of a run's rounds follows the host
/// where the best quartile follows the code (the README has the
/// measurements). A change to the code moves both alike; the median is
/// reported beside it. A size is reported as the mean: its round-to-round
/// variation is the program's own, in both directions.
#[derive(Clone, Debug, PartialEq)]
pub struct Summary {
    pub value: f64,
    pub median: f64,
    pub n: usize,
    pub min: f64,
    pub max: f64,
    pub tail: Option<(f64, f64)>,
}

impl Summary {
    pub fn of(samples: &[f64], statistic: Statistic) -> Summary {
        let v = sorted(samples);
        Summary {
            value: match statistic {
                Statistic::LowerQuartile => percentile(&v, 25.0),
                Statistic::UpperQuartile => percentile(&v, 75.0),
                Statistic::Mean if v.is_empty() => f64::NAN,
                Statistic::Mean => v.iter().sum::<f64>() / v.len() as f64,
            },
            median: median(&v),
            n: v.len(),
            min: v.first().copied().unwrap_or(f64::NAN),
            max: v.last().copied().unwrap_or(f64::NAN),
            tail: tail(&v),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond_it() {
        // Too few samples: no tail is reported at all.
        let few: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail(&few), None);
        // 21 samples: the 11th has ten beyond it.
        let v: Vec<f64> = (1..=21).map(f64::from).collect();
        let (p, x) = tail(&v).expect("enough samples");
        assert_eq!(x, 11.0);
        assert!((p - 100.0 * 11.0 / 21.0).abs() < 1e-12);
        // 1000 samples: p99 exactly, and exactly ten values above it.
        let v: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        let (p, x) = tail(&v).expect("enough samples");
        assert_eq!((p, x), (99.0, 990.0));
        assert_eq!(v.iter().filter(|&&s| s > x).count(), TAIL_SAMPLES);
    }

    #[test]
    fn summary_reports_the_best_quartile_with_median_count_and_range() {
        let samples: Vec<f64> = (1..=20).rev().map(f64::from).collect();
        let time = Summary::of(&samples, Statistic::LowerQuartile);
        assert_eq!(
            (time.value, time.median, time.n, time.min, time.max),
            (5.0, 10.5, 20, 1.0, 20.0)
        );
        assert_eq!(time.tail, None);
        // A rate's best quartile is the high one, as far from the end.
        assert_eq!(Summary::of(&samples, Statistic::UpperQuartile).value, 15.0);
        assert_eq!(Summary::of(&samples, Statistic::Mean).value, 10.5);
        let big: Vec<f64> = (0..300).map(f64::from).collect();
        assert_eq!(Summary::of(&big, Statistic::Mean).tail.map(|(_, x)| x), Some(289.0));
        // A count is its own summary; nothing measured is NaN, not 0.
        for statistic in [Statistic::LowerQuartile, Statistic::UpperQuartile, Statistic::Mean] {
            let count = Summary::of(&[42.0], statistic);
            assert_eq!((count.value, count.median, count.n, count.min), (42.0, 42.0, 1, 42.0));
            assert!(Summary::of(&[], statistic).value.is_nan());
        }
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 95.0), 95.0);
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[9.0], 95.0), 9.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), Some((1.5, 12.0)));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(spread(&v), Some(1.0));
    }
}
