//! Experiment runner: pairs a workload with a cluster and the paper's
//! config matrix, producing speed-ups against the right sequential
//! baseline.

use cluster_sim::{e800, zx2000, ClusterSpec, Compiler, CostModel};
use psa_desim::EventSim;
use psa_runtime::{run_sequential, BalanceMode, RunConfig, RunReport, SpaceMode};
use psa_workloads::{paper_run_config, Workload, WorkloadSize};

/// One parallel run plus its baseline-relative speed-up.
#[derive(Clone, Debug)]
pub struct RunOutcome {
    pub report: RunReport,
    pub speedup: f64,
}

/// Shared runner state: caches the sequential baselines (they are identical
/// across the rows of a table).
///
/// The cache is keyed on `(Workload, speed)` only. That key is complete
/// **because** `size` and `frames` are fixed at construction — they are
/// private and have no setters, so a cached baseline can never describe a
/// different workload than the one a later `run` uses. To benchmark another
/// size or frame count, build a new `Runner`.
pub struct Runner {
    size: WorkloadSize,
    frames: u64,
    seq_cache: Vec<(Workload, f64, f64)>, // (exp, speed, total_time)
}

impl Runner {
    pub fn new(size: WorkloadSize, frames: u64) -> Self {
        Runner { size, frames, seq_cache: Vec::new() }
    }

    /// The workload size every run and cached baseline uses.
    pub fn size(&self) -> WorkloadSize {
        self.size
    }

    /// The frame count every run and cached baseline uses.
    pub fn frames(&self) -> u64 {
        self.frames
    }

    fn run_config(&self, exp: Workload, space: SpaceMode, balance: BalanceMode) -> RunConfig {
        let mut cfg = paper_run_config(self.frames, exp.dt());
        cfg.space = space;
        cfg.balance = balance;
        cfg
    }

    /// Sequential baseline time for `exp` at relative machine `speed`
    /// (cached).
    pub fn sequential_time(&mut self, exp: Workload, speed: f64) -> f64 {
        if let Some((_, _, t)) =
            self.seq_cache.iter().find(|(e, s, _)| *e == exp && (*s - speed).abs() < 1e-12)
        {
            return *t;
        }
        let scene = exp.scene(self.size);
        let cfg = self.run_config(exp, SpaceMode::Finite, BalanceMode::Static);
        let report = run_sequential(&scene, &cfg, &self.size.cost_model(), speed);
        let t = report.steady_time();
        self.seq_cache.push((exp, speed, t));
        t
    }

    /// The paper's Myrinet/GCC baseline machine (E800).
    pub fn baseline_gcc(&mut self, exp: Workload) -> f64 {
        self.sequential_time(exp, e800().speed(Compiler::Gcc))
    }

    /// The paper's Fast-Ethernet/ICC baseline machine (Itanium zx2000).
    pub fn baseline_icc(&mut self, exp: Workload) -> f64 {
        self.sequential_time(exp, zx2000().speed(Compiler::Icc))
    }

    /// Run one parallel configuration and compute its speed-up against
    /// `baseline_time`.
    pub fn run(
        &mut self,
        exp: Workload,
        cluster: ClusterSpec,
        space: SpaceMode,
        balance: BalanceMode,
        baseline_time: f64,
    ) -> RunOutcome {
        self.run_inner(exp, cluster, space, balance, baseline_time, false)
    }

    /// Like [`Runner::run`] with the per-phase recorder enabled: the report
    /// carries `RunReport::phases`. Instrumentation is quiet (it only reads
    /// the virtual clocks), so timings and speed-ups are identical to an
    /// untraced run.
    pub fn run_traced(
        &mut self,
        exp: Workload,
        cluster: ClusterSpec,
        space: SpaceMode,
        balance: BalanceMode,
        baseline_time: f64,
    ) -> RunOutcome {
        self.run_inner(exp, cluster, space, balance, baseline_time, true)
    }

    fn run_inner(
        &mut self,
        exp: Workload,
        cluster: ClusterSpec,
        space: SpaceMode,
        balance: BalanceMode,
        baseline_time: f64,
        traced: bool,
    ) -> RunOutcome {
        let scene = exp.scene(self.size);
        let cfg = self.run_config(exp, space, balance);
        let cost: CostModel = self.size.cost_model();
        let mut sim = EventSim::new(scene, cfg, cluster, cost);
        if traced {
            sim = sim.with_phases();
        }
        let report = sim.run();
        let steady = report.steady_time();
        let speedup = if steady > 0.0 { baseline_time / steady } else { 0.0 };
        RunOutcome { report, speedup }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psa_workloads::myrinet_gcc;

    fn tiny() -> WorkloadSize {
        WorkloadSize { systems: 2, particles_per_system: 1500, scale: 100.0 }
    }

    #[test]
    fn parallel_beats_sequential_for_finite_space() {
        let mut r = Runner::new(tiny(), 10);
        let base = r.baseline_gcc(Workload::Snow);
        assert!(base > 0.0);
        let out =
            r.run(Workload::Snow, myrinet_gcc(4, 1), SpaceMode::Finite, BalanceMode::Static, base);
        assert!(out.speedup > 1.5, "4 calculators should beat sequential: {}", out.speedup);
        assert!(out.speedup < 4.0, "cannot exceed ideal: {}", out.speedup);
    }

    #[test]
    fn sequential_cache_hits() {
        let mut r = Runner::new(tiny(), 6);
        let a = r.baseline_gcc(Workload::Snow);
        let b = r.baseline_gcc(Workload::Snow);
        assert_eq!(a, b);
    }

    #[test]
    fn cache_key_distinguishes_speed_and_runner() {
        let mut r = Runner::new(tiny(), 6);
        let fast = r.sequential_time(Workload::Snow, 1.0);
        let slow = r.sequential_time(Workload::Snow, 0.5);
        assert!((slow / fast - 2.0).abs() < 1e-9, "speed must be part of the key");
        // size/frames are fixed per Runner (no setters), so a different
        // workload needs a fresh Runner — and must not share baselines.
        let big = WorkloadSize { systems: 2, particles_per_system: 6000, scale: 100.0 };
        let mut r2 = Runner::new(big, 6);
        assert_eq!(r2.size().particles_per_system, 6000);
        assert_eq!(r2.frames(), 6);
        assert!(
            r2.sequential_time(Workload::Snow, 1.0) > fast,
            "4x particles must cost more than the cached tiny baseline"
        );
    }

    #[test]
    fn infinite_space_static_balancing_starves_processes() {
        // The Table 1 IS-SLB effect: odd process counts leave one busy
        // calculator; speed-up collapses below 1.
        let mut r = Runner::new(tiny(), 8);
        let base = r.baseline_gcc(Workload::Snow);
        let odd = r.run(
            Workload::Snow,
            myrinet_gcc(5, 1),
            SpaceMode::Infinite,
            BalanceMode::Static,
            base,
        );
        let even = r.run(
            Workload::Snow,
            myrinet_gcc(4, 1),
            SpaceMode::Infinite,
            BalanceMode::Static,
            base,
        );
        assert!(odd.speedup < 1.2, "odd IS-SLB ≈ sequential: {}", odd.speedup);
        assert!(
            even.speedup > odd.speedup,
            "even split uses two calculators: {} vs {}",
            even.speedup,
            odd.speedup
        );
    }

    #[test]
    fn dynamic_balancing_recovers_infinite_space() {
        let mut r = Runner::new(tiny(), 12);
        let base = r.baseline_gcc(Workload::Snow);
        let slb = r.run(
            Workload::Snow,
            myrinet_gcc(5, 1),
            SpaceMode::Infinite,
            BalanceMode::Static,
            base,
        );
        let dlb = r.run(
            Workload::Snow,
            myrinet_gcc(5, 1),
            SpaceMode::Infinite,
            BalanceMode::dynamic(),
            base,
        );
        assert!(
            dlb.speedup > slb.speedup * 1.3,
            "DLB must recover IS imbalance: {} vs {}",
            dlb.speedup,
            slb.speedup
        );
    }
}
