//! Light running statistics used by the load balancer and bench harness.

/// Welford running mean/variance accumulator.
///
/// The benchmark harness uses this to summarize per-frame times; the load
/// balancer uses it to smooth noisy per-frame load reports in the threaded
/// executor (virtual time is noise-free).
#[derive(Clone, Debug, Default)]
pub struct Running {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Running {
    pub fn new() -> Self {
        Running { n: 0, mean: 0.0, m2: 0.0, min: f64::INFINITY, max: f64::NEG_INFINITY }
    }

    /// Fold one observation in.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let d = x - self.mean;
        self.mean += d / self.n as f64;
        self.m2 += d * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    pub fn count(&self) -> u64 {
        self.n
    }

    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Sample variance; zero until two observations exist.
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    pub fn min(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.min
        }
    }

    pub fn max(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Merge another accumulator (parallel reduction of per-thread stats).
    pub fn merge(&mut self, o: &Running) {
        if o.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = o.clone();
            return;
        }
        let n = self.n + o.n;
        let d = o.mean - self.mean;
        let mean = self.mean + d * o.n as f64 / n as f64;
        let m2 = self.m2 + o.m2 + d * d * (self.n as f64 * o.n as f64) / n as f64;
        self.n = n;
        self.mean = mean;
        self.m2 = m2;
        self.min = self.min.min(o.min);
        self.max = self.max.max(o.max);
    }
}

/// Coefficient-of-imbalance for a load vector: `max/mean - 1`.
///
/// Zero means perfectly balanced; the DLB ablation benches report this to
/// show convergence of the neighbor-pair balancer.
pub fn imbalance(loads: &[f64]) -> f64 {
    if loads.is_empty() {
        return 0.0;
    }
    let mean = loads.iter().sum::<f64>() / loads.len() as f64;
    if mean <= 0.0 {
        return 0.0;
    }
    let max = loads.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    max / mean - 1.0
}

/// The `q`-quantile (`q` clamped to `0.0 ..= 1.0`) of `xs`: the value at
/// rank `round(q · (n − 1))` of the sorted values, so always one of them;
/// `0.0` when there are none.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let Some(last) = sorted.len().checked_sub(1) else {
        return 0.0;
    };
    let pos = (q.clamp(0.0, 1.0) * last as f64).round() as usize;
    sorted.get(pos.min(last)).copied().unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn running_moments() {
        let mut r = Running::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            r.push(x);
        }
        assert_eq!(r.count(), 8);
        assert!((r.mean() - 5.0).abs() < 1e-12);
        // population variance is 4 => sample variance is 32/7
        assert!((r.variance() - 32.0 / 7.0).abs() < 1e-12);
        assert_eq!(r.min(), 2.0);
        assert_eq!(r.max(), 9.0);
    }

    #[test]
    fn empty_running_is_safe() {
        let r = Running::new();
        assert_eq!(r.mean(), 0.0);
        assert_eq!(r.variance(), 0.0);
        assert_eq!(r.min(), 0.0);
        assert_eq!(r.max(), 0.0);
    }

    #[test]
    fn merge_matches_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut whole = Running::new();
        for &x in &xs {
            whole.push(x);
        }
        let mut a = Running::new();
        let mut b = Running::new();
        for &x in &xs[..37] {
            a.push(x);
        }
        for &x in &xs[37..] {
            b.push(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-9);
        assert!((a.variance() - whole.variance()).abs() < 1e-9);
    }

    #[test]
    fn quantile_is_the_nearest_rank_of_the_sorted_values() {
        assert_eq!(quantile(&[], 0.5), 0.0);
        let xs = [7.0, 1.0, 5.0, 3.0, 9.0];
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 0.5), 5.0);
        // 0.99 · 4 = 3.96 rounds to rank 4, the maximum.
        assert_eq!(quantile(&xs, 0.99), 9.0);
        assert_eq!(quantile(&xs, 1.0), 9.0);
        // 0.5 · 3 = 1.5 rounds to rank 2: one of the values, not 2.5.
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0], 0.5), 3.0);
    }

    #[test]
    fn imbalance_metric() {
        assert_eq!(imbalance(&[]), 0.0);
        assert_eq!(imbalance(&[3.0, 3.0, 3.0]), 0.0);
        let i = imbalance(&[1.0, 1.0, 4.0]);
        assert!((i - 1.0).abs() < 1e-12); // max 4, mean 2 => 1.0
    }
}
