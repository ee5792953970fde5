//! The virtual-time cost model.
//!
//! Translates *counted work* (particle·action applications, particles
//! packed, bytes sorted, pairs evaluated) into seconds on a node of a given
//! relative speed. All constants are expressed in seconds at speed 1.0
//! (an E800 under GCC) and were calibrated so the reproduced tables land in
//! the paper's range; EXPERIMENTS.md records the paper-vs-measured values.
//!
//! The `scale` field lets benches run with fewer *real* particles while
//! charging virtual time (and migration bytes) as if the full population
//! were present: virtual counts are `real count × scale`. With `scale = 1`
//! the model is exact for the population actually simulated.

/// Cost constants (seconds at relative speed 1.0).
#[derive(Clone, Debug, PartialEq)]
pub struct CostModel {
    /// One particle·action application of weight 1.0. ~200 cycles on the
    /// 1 GHz P-III.
    pub per_action_unit: f64,
    /// Emitting one particle at the manager: sampling several
    /// distributions (Box–Muller, trig), routing into per-domain send
    /// buffers, and the MPI marshalling of its 70 wire bytes. Creation is
    /// the protocol's serial component (calculators wait on it every
    /// frame), and McAllister-style sources are empirically far more
    /// expensive than a force pass.
    pub per_create: f64,
    /// Checking one particle against its domain slice and re-bucketing
    /// (the end-of-frame leaver scan).
    pub per_exchange_check: f64,
    /// Packing or unpacking one particle for a message.
    pub per_pack: f64,
    /// Comparison cost inside the donation sort (charged n·log₂n).
    pub per_sort_cmp: f64,
    /// Rasterizing one particle at the image generator.
    pub per_render: f64,
    /// Fixed per-frame cost at the image generator (clear, encode).
    pub per_frame_render_fixed: f64,
    /// Evaluating one neighbor pair at the manager during DLB.
    pub per_balance_pair: f64,
    /// Multiplier from real particle counts to virtual particle counts.
    pub scale: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            per_action_unit: 0.20e-6,
            per_create: 3.5e-6,
            per_exchange_check: 0.12e-6,
            per_pack: 0.25e-6,
            per_sort_cmp: 0.015e-6,
            per_render: 0.05e-6,
            per_frame_render_fixed: 2.0e-3,
            per_balance_pair: 5.0e-6,
            scale: 1.0,
        }
    }
}

impl CostModel {
    /// A model that charges time as if `scale`× more particles existed.
    pub fn scaled(scale: f64) -> Self {
        assert!(scale > 0.0);
        CostModel { scale, ..Default::default() }
    }

    /// Virtual count for a real count.
    #[inline]
    pub fn virt(&self, real: usize) -> f64 {
        real as f64 * self.scale
    }

    /// Seconds for `weighted` particle·action applications (already summed
    /// as `Σ applied_i × weight_i` by the action list).
    pub fn weighted_work_time(&self, weighted: f64, speed: f64) -> f64 {
        weighted * self.scale * self.per_action_unit / speed
    }

    /// Seconds for the manager to create `n` real particles.
    pub fn create_time(&self, n: usize, speed: f64) -> f64 {
        self.virt(n) * self.per_create / speed
    }

    /// Seconds for the leaver scan over `n` real particles.
    pub fn exchange_check_time(&self, n: usize, speed: f64) -> f64 {
        self.virt(n) * self.per_exchange_check / speed
    }

    /// Seconds to pack (or unpack) `n` real particles.
    pub fn pack_time(&self, n: usize, speed: f64) -> f64 {
        self.virt(n) * self.per_pack / speed
    }

    /// Seconds to sort `n` real particles for donation.
    pub fn sort_time(&self, n: usize, speed: f64) -> f64 {
        let v = self.virt(n);
        if v < 2.0 {
            return 0.0;
        }
        v * v.log2() * self.per_sort_cmp / speed
    }

    /// Seconds for the image generator to rasterize `n` real particles.
    pub fn render_time(&self, n: usize, speed: f64) -> f64 {
        self.virt(n) * self.per_render / speed + self.per_frame_render_fixed / speed
    }

    /// Seconds for the manager to evaluate `pairs` neighbor pairs.
    pub fn balance_eval_time(&self, pairs: usize, speed: f64) -> f64 {
        pairs as f64 * self.per_balance_pair / speed
    }

    /// Virtual bytes on the wire for `n` real particles of `wire_bytes`
    /// each.
    pub fn wire_bytes(&self, n: usize, wire_bytes: usize) -> u64 {
        (self.virt(n) * wire_bytes as f64).round() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn speed_divides_time() {
        let m = CostModel::default();
        let slow = m.weighted_work_time(6000.0, 0.5);
        let fast = m.weighted_work_time(6000.0, 1.0);
        assert!((slow / fast - 2.0).abs() < 1e-12);
    }

    #[test]
    fn scale_multiplies_counts_and_bytes() {
        let m = CostModel::scaled(10.0);
        let base = CostModel::default();
        assert!((m.pack_time(100, 1.0) - base.pack_time(1000, 1.0)).abs() < 1e-15);
        assert_eq!(m.wire_bytes(100, 70), base.wire_bytes(1000, 70));
    }

    #[test]
    fn sort_time_is_superlinear_and_safe_for_tiny_n() {
        let m = CostModel::default();
        assert_eq!(m.sort_time(0, 1.0), 0.0);
        assert_eq!(m.sort_time(1, 1.0), 0.0);
        let t1 = m.sort_time(1000, 1.0);
        let t2 = m.sort_time(2000, 1.0);
        assert!(t2 > 2.0 * t1, "n log n growth");
    }

    #[test]
    fn render_has_fixed_component() {
        let m = CostModel::default();
        let empty = m.render_time(0, 1.0);
        assert!(empty > 0.0);
        assert!(m.render_time(1_000_000, 1.0) > empty);
    }

    #[test]
    fn sequential_frame_magnitude_is_sane() {
        // 3.2M particles × ~6 weighted actions at speed 1.0 should be a few
        // seconds — the regime the paper's per-frame times live in.
        let m = CostModel::default();
        let t = m.weighted_work_time(3_200_000.0 * 6.0, 1.0);
        assert!(t > 1.0 && t < 10.0, "sequential frame compute {t}s");
    }
}
