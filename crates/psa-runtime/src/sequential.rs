//! The sequential baseline.
//!
//! The paper computes every speed-up against "the time of the sequential
//! execution" on the best machine/compiler pair for the fabric in question
//! (E800+GCC for the Myrinet tables, Itanium+ICC for the Fast-Ethernet
//! ones). This module runs the same scene single-process — the original
//! McAllister-style loop with no domains, no exchange, no packing — and
//! charges the same cost model at the given relative speed.

use cluster_sim::CostModel;
use psa_core::kernel;
use psa_core::SubDomainStore;
use psa_math::stats::imbalance;
use psa_math::Axis;

use crate::config::RunConfig;
// The RNG streams come from the shared protocol module, so sequential and
// parallel runs simulate the identical workload by construction.
use crate::protocol::{stream, TAG_ACTIONS, TAG_CREATE};
use crate::report::{FrameReport, RunReport};
use crate::scene::Scene;

/// Run the scene sequentially on a machine of relative `speed`; returns a
/// report whose `total_time` is the baseline for speed-up computation.
///
/// `cfg` must pass [`RunConfig::check`] and `scene` must pass
/// [`Scene::check`]: with a non-finite `dt` or emitter the report describes
/// particles at non-finite positions, where the parallel executors refuse
/// the run.
pub fn run_sequential(scene: &Scene, cfg: &RunConfig, cost: &CostModel, speed: f64) -> RunReport {
    assert!(speed > 0.0);
    let n_sys = scene.systems.len();
    // The original library keeps each system's particles in one vector: a
    // single-bucket store spanning the whole space.
    let mut stores: Vec<SubDomainStore> =
        scene.systems.iter().map(|s| SubDomainStore::new(s.spec.space, Axis::X, 1)).collect();

    let mut total = 0.0f64;
    let mut frames = Vec::with_capacity(cfg.frames as usize);
    let mut strays = Vec::new(); // reused across frames: no per-frame allocation
    let emitters = scene.emitters();
    let mut newborn = Vec::new();
    for frame in 0..cfg.frames {
        let mut fr = FrameReport { frame, ..Default::default() };
        let mut frame_time = 0.0;
        #[allow(clippy::needless_range_loop)] // sys indexes scene + stores in parallel
        for sys in 0..n_sys {
            let setup = &scene.systems[sys];
            // Creation.
            let mut rng_c = stream(cfg.seed, TAG_CREATE, frame, sys, 0);
            emitters[sys].emit_cohort_into(frame, &mut rng_c, &mut newborn);
            frame_time += cost.create_time(newborn.len(), speed);
            stores[sys].extend(newborn.drain(..));
            // Calculus. The sequential run uses the rank-1 action stream
            // (the single calculator) on the kernel's serial path, as the
            // calculators do.
            let rng_a = stream(cfg.seed, TAG_ACTIONS, frame, sys, 1);
            let kr =
                kernel::run_actions(&setup.actions, cfg.dt, frame, rng_a, &mut stores[sys], 0, 1);
            frame_time += cost.weighted_work_time(kr.weighted, speed);
            // Out-of-space particles have nowhere to migrate: they stay
            // (and are usually culled by kill actions); no exchange exists.
            stores[sys].collect_leavers_into(&mut strays);
            for p in strays.drain(..) {
                stores[sys].insert(p);
            }
            fr.alive += (cost.virt(stores[sys].len())).round() as u64;
        }
        // Render every system's particles.
        let alive_real: usize = stores.iter().map(SubDomainStore::len).sum();
        frame_time += cost.render_time(alive_real, speed);
        fr.frame_time = frame_time;
        fr.imbalance = imbalance(&[1.0]);
        total += frame_time;
        frames.push(fr);
    }

    RunReport {
        label: format!("SEQ-{}", cfg.label()),
        cluster: "sequential".into(),
        calculators: 1,
        total_time: total,
        frames: frames.into_iter().filter(|f| f.frame >= cfg.warmup).collect(),
        traffic: Default::default(),
        dead_ranks: Vec::new(),
        lost_particles: 0,
        phases: None,
        recoveries: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scene::SystemSetup;
    use psa_core::actions::{ActionList, Gravity, KillOld, MoveParticles};
    use psa_core::SystemSpec;

    fn tiny_scene() -> Scene {
        let mut spec = SystemSpec::test_spec(0);
        spec.emit_per_frame = 50;
        spec.max_age = 0.5;
        let mut s = Scene::new();
        s.add_system(SystemSetup::new(
            spec,
            ActionList::new().then(Gravity::earth()).then(KillOld::new(0.5)).then(MoveParticles),
        ));
        s
    }

    #[test]
    fn population_reaches_steady_state() {
        let scene = tiny_scene();
        let cfg = RunConfig { frames: 40, dt: 0.1, ..Default::default() };
        let r = run_sequential(&scene, &cfg, &CostModel::default(), 1.0);
        // lifetime 0.5s at dt 0.1 = 5 frames × 50/frame ≈ 250-300 alive
        let last = r.frames.last().unwrap();
        assert!(last.alive >= 250 && last.alive <= 350, "alive {}", last.alive);
    }

    #[test]
    fn faster_machine_is_proportionally_faster() {
        let scene = tiny_scene();
        let cfg = RunConfig { frames: 10, dt: 0.1, ..Default::default() };
        let slow = run_sequential(&scene, &cfg, &CostModel::default(), 0.5);
        let fast = run_sequential(&scene, &cfg, &CostModel::default(), 1.0);
        assert!((slow.total_time / fast.total_time - 2.0).abs() < 1e-9);
    }

    #[test]
    fn deterministic() {
        let scene = tiny_scene();
        let cfg = RunConfig { frames: 8, dt: 0.1, ..Default::default() };
        let a = run_sequential(&scene, &cfg, &CostModel::default(), 1.0);
        let b = run_sequential(&scene, &cfg, &CostModel::default(), 1.0);
        assert_eq!(a.total_time, b.total_time);
        assert_eq!(a.frames.last().unwrap().alive, b.frames.last().unwrap().alive);
    }
}
