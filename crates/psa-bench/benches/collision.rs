//! Collision broadphase benches: grid vs brute force, and the
//! domain-decomposition payoff (local + ghosts vs whole space). Print-only
//! host times — `perf/` has no collision probe yet; once it has one this
//! file goes (ROADMAP item 6).

use std::hint::black_box;
use std::time::Instant;

use psa_core::collide::{colliding_pairs, UniformGrid};
use psa_core::Particle;
use psa_math::{Rng64, Vec3};

/// Timed runs per label, after one warm-up run.
const SAMPLES: usize = 15;

/// Time `f` and print the median and minimum of [`SAMPLES`] runs.
fn bench<T>(label: &str, mut f: impl FnMut() -> T) {
    black_box(f());
    let mut ms: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let t0 = Instant::now();
            black_box(f());
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    ms.sort_by(f64::total_cmp);
    println!("{label}: median {:.3} ms, min {:.3} ms", ms[SAMPLES / 2], ms[0]);
}

fn cloud(n: usize, r: f32) -> Vec<Particle> {
    let mut rng = Rng64::new(99);
    (0..n)
        .map(|_| Particle::at(rng.in_box(Vec3::splat(-10.0), Vec3::splat(10.0))).with_size(r))
        .collect()
}

fn bench_grid_vs_brute() {
    for n in [1_000usize, 5_000, 20_000] {
        let ps = cloud(n, 0.15);
        bench(&format!("broadphase/grid/{n}"), || colliding_pairs(&ps, &[], 0.3));
        if n <= 5_000 {
            bench(&format!("broadphase/brute/{n}"), || {
                let mut pairs = Vec::new();
                for i in 0..ps.len() {
                    for j in i + 1..ps.len() {
                        let rr = ps[i].size + ps[j].size;
                        if ps[i].position.distance_squared(ps[j].position) < rr * rr {
                            pairs.push((i as u32, j as u32));
                        }
                    }
                }
                pairs
            });
        }
    }
}

fn bench_grid_build() {
    let ps = cloud(50_000, 0.15);
    bench("grid_build/50k", || UniformGrid::build(&ps, 0.3));
}

fn bench_domain_locality() {
    // The §3.1.4 argument: collision over one slice + ghost slab instead of
    // the full cloud.
    let ps = cloud(50_000, 0.15);
    let slice = (-1.25f32, 1.25f32); // one of 8 slices of [-10, 10)
    let local: Vec<Particle> =
        ps.iter().filter(|p| p.position.x >= slice.0 && p.position.x < slice.1).copied().collect();
    let ghosts: Vec<Particle> = ps
        .iter()
        .filter(|p| {
            let x = p.position.x;
            (x >= slice.0 - 0.3 && x < slice.0) || (x >= slice.1 && x < slice.1 + 0.3)
        })
        .copied()
        .collect();
    bench("domain_locality/whole_space_50k", || colliding_pairs(&ps, &[], 0.3));
    bench("domain_locality/slice_plus_ghosts", || colliding_pairs(&local, &ghosts, 0.3));
}

fn main() {
    bench_grid_vs_brute();
    bench_grid_build();
    bench_domain_locality();
}
