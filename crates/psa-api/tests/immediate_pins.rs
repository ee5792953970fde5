//! Immediate mode, pinned bit for bit: a per-frame FNV-1a hash of every
//! particle's field bits, in group order, for two call sequences. A change
//! to how a `p_*` call computes — or to the order it leaves particles in —
//! moves a hash; the first frame that differs is reported.
//!
//! Print the tables again (only for a change that means to move immediate
//! mode) with `PIN_PRINT=1 cargo test -p psa-api --test immediate_pins --
//! --nocapture --test-threads 1`.

use psa_api::{Context, PDomain};
use psa_core::objects::ExternalObject;
use psa_core::Particle;
use psa_math::{Aabb, Vec3};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over the bits of every field of every particle, in order.
fn fold(mut h: u64, particles: &[Particle]) -> u64 {
    for p in particles {
        let v3 = |v: Vec3| [v.x, v.y, v.z];
        let fields = [v3(p.position), v3(p.velocity), v3(p.orientation), v3(p.color)];
        let scalars = [p.age, p.size, p.alpha, p.mass];
        for x in fields.iter().flatten().chain(scalars.iter()) {
            for byte in x.to_bits().to_le_bytes() {
                h = (h ^ byte as u64).wrapping_mul(FNV_PRIME);
            }
        }
    }
    h
}

fn check(name: &str, got: &[u64], want: &[u64]) {
    if std::env::var_os("PIN_PRINT").is_some() {
        println!("const {name}: [u64; {}] = [", got.len());
        for h in got {
            println!("    {h:#018x},");
        }
        println!("];");
    }
    assert_eq!(got.len(), want.len(), "{name}: frame count");
    if let Some(f) = got.iter().zip(want).position(|(g, w)| g != w) {
        panic!("{name}: frame {f} hashes {:#018x}, pinned {:#018x}", got[f], want[f]);
    }
}

/// The `examples/fireworks.rs` loop without its rendering: three shells,
/// 48 frames, seed `0xF14E`.
fn fireworks() -> Vec<u64> {
    let mut ctx = Context::new(0xF14E);
    let shells = [
        (Vec3::new(-12.0, 16.0, 0.0), Vec3::new(1.0, 0.4, 0.2)),
        (Vec3::new(0.0, 20.0, 0.0), Vec3::new(0.3, 0.7, 1.0)),
        (Vec3::new(12.0, 17.0, 0.0), Vec3::new(1.0, 0.9, 0.4)),
    ];
    let groups: Vec<usize> = (0..shells.len())
        .map(|i| ctx.p_gen_particle_group(&format!("shell-{i}"), 20_000))
        .collect();
    ctx.p_time_step(0.05);
    ctx.p_size(0.15);
    let mut hashes = Vec::new();
    for frame in 0..48u64 {
        for (g, (center, color)) in groups.iter().zip(shells.iter()) {
            ctx.p_current_group(*g);
            ctx.p_new_frame();
            if frame == 2 + 6 * *g as u64 {
                ctx.p_color(color.x, color.y, color.z, 1.0);
                ctx.p_position_domain(PDomain::Sphere {
                    center: *center,
                    r_outer: 0.5,
                    r_inner: 0.0,
                });
                ctx.p_velocity_domain(PDomain::Sphere {
                    center: Vec3::ZERO,
                    r_outer: 10.0,
                    r_inner: 6.0,
                });
                ctx.p_source(4000);
            }
            ctx.p_gravity(Vec3::new(0.0, -5.0, 0.0));
            ctx.p_damping(0.25);
            ctx.p_fade(0.45, true);
            ctx.p_kill_old(3.0);
            ctx.p_move();
        }
        hashes.push(groups.iter().fold(FNV_OFFSET, |h, g| fold(h, ctx.group(*g).particles())));
    }
    hashes
}

/// Every action call at least once, every state register set, positions
/// from Box, Disc, Cone, Triangle and Blob in turn and velocities from
/// several shapes, under a capacity cap that binds.
fn every_call() -> Vec<u64> {
    let mut ctx = Context::new(0x05EE_DA11);
    let g = ctx.p_gen_particle_group("all", 900);
    ctx.p_time_step(0.04);
    let positions = [
        PDomain::Box(Aabb::new(Vec3::new(-2.0, 1.0, -2.0), Vec3::new(2.0, 3.0, 2.0))),
        PDomain::Disc { center: Vec3::new(0.0, 2.0, 0.0), radius: 1.5, normal: Vec3::Y },
        PDomain::Cone { apex: Vec3::new(1.0, 0.5, 0.0), axis: Vec3::Y * 2.0, radius: 1.0 },
        PDomain::Triangle {
            a: Vec3::new(-1.0, 1.0, 0.0),
            b: Vec3::new(1.0, 1.0, 0.5),
            c: Vec3::new(0.0, 3.0, -0.5),
        },
        PDomain::Blob { center: Vec3::new(0.0, 2.5, 0.0), stdev: 0.4 },
    ];
    let velocities = [
        PDomain::Point(Vec3::new(0.5, 4.0, 0.0)),
        PDomain::Sphere { center: Vec3::Y * 3.0, r_outer: 2.0, r_inner: 0.0 },
        PDomain::Line { a: Vec3::new(-1.0, 2.0, 0.0), b: Vec3::new(1.0, 5.0, 0.3) },
        PDomain::Cylinder { base: Vec3::Y, axis: Vec3::Y * 3.0, radius: 0.7 },
        PDomain::Box(Aabb::new(Vec3::new(-1.0, 1.0, -1.0), Vec3::new(1.0, 6.0, 1.0))),
    ];
    let bounds = Aabb::new(Vec3::new(-6.0, -1.0, -6.0), Vec3::new(6.0, 12.0, 6.0));
    let mut hashes = Vec::new();
    for frame in 0..40usize {
        ctx.p_current_group(g);
        ctx.p_new_frame();
        let f = frame as f32;
        ctx.p_color(0.2 + 0.01 * f, 0.5, 1.0 - 0.01 * f, 0.9);
        ctx.p_size(0.1 + 0.001 * f);
        ctx.p_mass(1.0 + 0.05 * f);
        ctx.p_orientation(Vec3::new(f.sin(), 1.0, f.cos()));
        ctx.p_position_domain(positions[frame % positions.len()].clone());
        ctx.p_velocity_domain(velocities[(frame / 2) % velocities.len()].clone());
        ctx.p_source(60);
        ctx.p_gravity(Vec3::new(0.0, -9.81, 0.0));
        ctx.p_random_accel(1.5);
        ctx.p_damping(0.1);
        ctx.p_wind(Vec3::new(2.0, 0.0, 0.5), 0.3);
        ctx.p_orbit_point(Vec3::new(0.0, 4.0, 0.0), 3.0);
        ctx.p_bounce(ExternalObject::ground(0.0), 0.2, 0.6);
        ctx.p_bounce(
            ExternalObject::Sphere { center: Vec3::new(0.0, 1.0, 0.0), radius: 0.8 },
            0.1,
            0.5,
        );
        ctx.p_kill_old(0.9);
        ctx.p_kill_below(0.05);
        ctx.p_kill_outside(bounds);
        ctx.p_fade(1.2, frame % 2 == 0);
        ctx.p_move();
        hashes.push(fold(FNV_OFFSET, ctx.group(g).particles()));
    }
    hashes
}

#[test]
fn fireworks_frames_are_pinned() {
    check("FIREWORKS", &fireworks(), &FIREWORKS);
}

#[test]
fn every_call_sequence_is_pinned() {
    check("EVERY_CALL", &every_call(), &EVERY_CALL);
}

const EVERY_CALL: [u64; 40] = [
    0xeade273728fd2143,
    0x9b2676805370f2b7,
    0x0a4cbc7a48fde148,
    0xf9d66f72ba5601b4,
    0xb38b6d624d7ce965,
    0x76b1ca90abe96b7f,
    0x48ad9c55f8206eb6,
    0x50e45a41c9caf89b,
    0x9d5f3b1cabb3983f,
    0x981dcb7b8b19372f,
    0xc2fad8501490c215,
    0xabe0cfab23c4ae44,
    0x9e923858027d0505,
    0x819524953b93a9ef,
    0xa697cca6827db941,
    0x130498c3bb16c25c,
    0x0c7b8a822fbda399,
    0xc149161c2b8945a7,
    0xf22cf714de62b928,
    0xdc7976ed484e4ba9,
    0xca2254abb0052f5d,
    0x061b69885547daf8,
    0x63e0bcbb58d3a21d,
    0x8e2946934dc4329a,
    0x44432e4f3e9e7dcf,
    0xe3957fa50a7e5dcf,
    0x4d9f4ff4b231450e,
    0x6941af87461d7b3f,
    0xd2a064994515263e,
    0xd88b506d1987cef4,
    0x5f1d8e121cbcd5ff,
    0x51ac2f7c244602b4,
    0x6b8a403d51bd8ec9,
    0xa0a8ae3ba609da8e,
    0x160d1a976212798b,
    0x6323998f8f9244ff,
    0x3904f501a8001aae,
    0x83c93c821f7e8c71,
    0xb3dc24e5623e1892,
    0x32da70926e7ba489,
];
const FIREWORKS: [u64; 48] = [
    0xcbf29ce484222325,
    0xcbf29ce484222325,
    0x88e4e8f19c37b8aa,
    0x61da71c32667f1b2,
    0xa5a16ea99a3a7adf,
    0x1965c9e971c81006,
    0x805667212440da00,
    0xa1a2bbcf9619a027,
    0x6ac583399ed1e152,
    0x207463bc34227baa,
    0x51a857f95bf2774f,
    0xf8d4df410bbc1453,
    0x8964df28c9372ee5,
    0x0e44e5431bef61df,
    0x28a784d848e700ca,
    0x00f4f7db8e2ee736,
    0x45783fef02f8baf6,
    0x760a25d39b3a2a8a,
    0x3c5a2bdaba13bcb5,
    0x06e5785da1065399,
    0x792447a87daa5ae7,
    0x31ffa48b262e45ef,
    0x253b2adae0718363,
    0xa7b5b497afd97b32,
    0xa8a3f6ee3d4953c5,
    0x7303ff2fdd0dc85d,
    0x31a8370d6a17ae7c,
    0x7441116431165579,
    0x3692979dc2ddfa70,
    0x96edbb8b2362d4cd,
    0x49f84ac6b6abd8f6,
    0xdded7a04008e5ae7,
    0x141915c9fbd0b8b7,
    0x2fbb63149945c786,
    0x7522bf0a1a0ddcf6,
    0x65f4f2f298556954,
    0x793214ecfd76474a,
    0x72f05bdf421ba801,
    0xcc3d0dd16c0420ce,
    0xdf717ee8c2d29a83,
    0xffbe13ed0be3d839,
    0xbd5e2c790117d8fc,
    0xed1b9de449490bcf,
    0xb1d371f839dd19d0,
    0xb3da62a4274bba4e,
    0x3e8d83f156d10236,
    0x9397179ffc47bea4,
    0xa63407eefb90d735,
];
