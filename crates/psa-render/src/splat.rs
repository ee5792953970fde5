//! Point-splat rasterization of particle sets and external objects.

use std::num::NonZeroUsize;

use psa_core::objects::ExternalObject;
use psa_core::Particle;
use psa_math::{ceil_isize, floor_isize, Scalar, Vec3};

use crate::camera::Camera;
use crate::framebuffer::Framebuffer;

/// Rasterization settings.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SplatConfig {
    /// Additive (glow) instead of alpha blending.
    pub additive: bool,
    /// Global multiplier on particle screen radii.
    pub radius_scale: Scalar,
    /// Clamp on splat radius in pixels (keeps close particles from
    /// swallowing the frame).
    pub max_radius_px: Scalar,
}

impl Default for SplatConfig {
    fn default() -> Self {
        SplatConfig { additive: false, radius_scale: 1.0, max_radius_px: 16.0 }
    }
}

/// One splat as the image generator draws it: what a calculator makes of
/// a particle (or of one sub-splat of a streak) once it has projected,
/// culled and clipped it. 48 bytes against the particle's 64, and all the
/// pixel loop reads.
#[repr(C)]
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Splat {
    /// Candidate pixel box, inclusive, already clipped to the viewport.
    pub x0: u32,
    pub x1: u32,
    pub y0: u32,
    pub y1: u32,
    /// Projected centre in pixels.
    pub x: Scalar,
    pub y: Scalar,
    /// Depth for the z-buffer.
    pub z: Scalar,
    /// Squared radius in pixels.
    pub r2: Scalar,
    pub color: Vec3,
    pub alpha: Scalar,
}

const _: () = assert!(std::mem::size_of::<Splat>() == 48);

/// Particles per batch of records `render_particles` and `render_streaks`
/// build and draw: small enough to stay in cache between the two.
const CHUNK: usize = 256;

/// Append the records `p` draws through `camera`: one for a dot, or with
/// `streak = Some((length, steps))` one per sub-splat of its streak, in
/// drawing order. Returns how many of them were culled — a particle or
/// sub-splat with a non-finite position, alpha or colour (its splat would
/// write NaN into every pixel it covers), one whose box misses the
/// viewport, or one whose squared radius overflows (a pixel it reaches
/// from afar would have an infinite distance over an infinite radius, a
/// NaN falloff too). A culled splat would have drawn nothing, so the
/// records alone draw the frame `p` draws.
pub fn push_splats(
    out: &mut Vec<Splat>,
    camera: &Camera,
    cfg: &SplatConfig,
    streak: Option<(Scalar, NonZeroUsize)>,
    p: &Particle,
) -> usize {
    let Some((length, steps)) = streak else {
        return usize::from(!push_splat(out, camera, cfg, p.position, p.size, p.color, p.alpha));
    };
    // Each sub-splat trails the head along the orientation, fading toward
    // the tail.
    let dir = p.orientation.normalized();
    let mut culled = 0;
    for s in 0..steps.get() {
        let t = s as Scalar / steps.get() as Scalar;
        let at = p.position - dir * (length * t);
        let alpha = p.alpha * (1.0 - 0.7 * t);
        culled += usize::from(!push_splat(out, camera, cfg, at, p.size, p.color, alpha));
    }
    culled
}

/// Project one splat and append its record; false if it is culled.
fn push_splat(
    out: &mut Vec<Splat>,
    camera: &Camera,
    cfg: &SplatConfig,
    at: Vec3,
    size: Scalar,
    color: Vec3,
    alpha: Scalar,
) -> bool {
    let proj = camera.project(at);
    // One test for all seven: the sum is finite exactly when every term
    // is, unless finite terms near `Scalar::MAX` overflow it, and a
    // particle that large is not drawable either.
    let sum = proj.x + proj.y + proj.z + alpha + color.x + color.y + color.z;
    if !sum.is_finite() {
        return false;
    }
    let radius = (size * proj.pixels_per_unit * cfg.radius_scale).min(cfg.max_radius_px).max(0.5);
    let r2 = radius * radius;
    // Saturating bounds: a centre or radius beyond `isize` clips to the
    // screen or misses it, never overflows. A viewport wider than a `u32`
    // is clipped to one.
    let (w, h) = camera.viewport();
    let (w, h) = (w.min(u32::MAX as usize) as isize, h.min(u32::MAX as usize) as isize);
    let r = ceil_isize(radius);
    let (px, py) = (floor_isize(proj.x), floor_isize(proj.y));
    let (x0, x1) = (px.saturating_sub(r), px.saturating_add(r));
    let (y0, y1) = (py.saturating_sub(r), py.saturating_add(r));
    if x1 < 0 || y1 < 0 || x0 >= w || y0 >= h || r2 == Scalar::INFINITY {
        return false;
    }
    out.push(Splat {
        x0: x0.max(0) as u32,
        x1: x1.min(w - 1) as u32,
        y0: y0.max(0) as u32,
        y1: y1.min(h - 1) as u32,
        x: proj.x,
        y: proj.y,
        z: proj.z,
        r2,
        color,
        alpha,
    });
    true
}

/// Rasterize `splats` into `fb` in order, blended or `additive`. A box is
/// clamped to `fb` as well, so a record made for a larger viewport draws
/// only the pixels `fb` has.
pub fn draw_splats(fb: &mut Framebuffer, splats: &[Splat], additive: bool) {
    let (w, h) = (fb.width(), fb.height());
    for s in splats {
        let (x0, x1) = (s.x0 as usize, (s.x1 as usize).min(w - 1));
        let (mut y, y1) = (s.y0 as usize, (s.y1 as usize).min(h - 1));
        while y <= y1 {
            let dy = y as Scalar + 0.5 - s.y;
            let dy2 = dy * dy;
            // Rounding is monotone, so `dx * dx + dy2 >= dy2` for every
            // dx: a row whose dy2 alone exceeds r2 has no pixel inside.
            if dy2 <= s.r2 {
                let mut x = x0;
                while x <= x1 {
                    let dx = x as Scalar + 0.5 - s.x;
                    let d2 = dx * dx + dy2;
                    if d2 <= s.r2 {
                        // soft falloff toward the rim
                        let falloff = 1.0 - d2 / s.r2;
                        if additive {
                            fb.add(x, y, s.color * (s.alpha * falloff), s.z);
                        } else {
                            fb.blend(x, y, s.color, s.alpha * falloff, s.z);
                        }
                    }
                    x += 1;
                }
            }
            y += 1;
        }
    }
}

/// Record and draw `particles` a chunk at a time; returns how many drew at
/// least one splat.
fn render(
    fb: &mut Framebuffer,
    camera: &Camera,
    particles: &[Particle],
    cfg: &SplatConfig,
    streak: Option<(Scalar, NonZeroUsize)>,
) -> usize {
    let steps = streak.map_or(1, |(_, steps)| steps.get());
    let mut drawn = 0;
    let mut splats = Vec::with_capacity(CHUNK.min(particles.len()).saturating_mul(steps));
    for chunk in particles.chunks(CHUNK) {
        splats.clear();
        for p in chunk {
            drawn += usize::from(push_splats(&mut splats, camera, cfg, streak, p) < steps);
        }
        draw_splats(fb, &splats, cfg.additive);
    }
    drawn
}

/// Render `particles` through `camera` into `fb`. Returns the number of
/// particles that landed on-screen (the image generator's work counter).
/// A particle [`push_splats`] culls is not drawn. Splats are clipped to the
/// camera's viewport and then to `fb`.
pub fn render_particles(
    fb: &mut Framebuffer,
    camera: &Camera,
    particles: &[Particle],
    cfg: &SplatConfig,
) -> usize {
    render(fb, camera, particles, cfg, None)
}

/// Render particles as orientation-aligned streaks — the use the paper's
/// mandatory *orientation* property exists for (falling rain/snow reads as
/// short strokes along the motion axis, not dots). Each particle draws as
/// `steps` sub-splats along its orientation vector scaled by
/// `streak_length`, with alpha fading toward the tail; it counts as drawn
/// if any of them lands.
///
/// # Panics
///
/// If `steps` is 0: a streak draws at least one sub-splat.
pub fn render_streaks(
    fb: &mut Framebuffer,
    camera: &Camera,
    particles: &[Particle],
    cfg: &SplatConfig,
    streak_length: Scalar,
    steps: usize,
) -> usize {
    let steps = NonZeroUsize::new(steps).expect("a streak needs at least one step");
    render(fb, camera, particles, cfg, Some((streak_length, steps)))
}

/// Render external objects as flat-shaded silhouettes (the image generator
/// is also responsible for "render\[ing\] external objects that exist in the
/// simulation", paper §3.2.4). A coarse screen-space point-membership test
/// is plenty for scene context.
pub fn render_objects(fb: &mut Framebuffer, camera: &Camera, objects: &[(ExternalObject, Vec3)]) {
    if objects.is_empty() {
        return;
    }
    // For each object, rasterize by sampling a bounding patch of world
    // points. Objects in these scenes are grounds, pools and obstacles, so
    // a fixed sampling density is acceptable.
    for (obj, color) in objects {
        match obj {
            ExternalObject::Plane { normal, d } => {
                // Draw the plane's trace as a band one pixel thick in world
                // units, so it is visible at any resolution.
                let tol = (camera.view.size().y / camera.height as Scalar).max(0.05);
                sample_world_grid(fb, camera, *color, |p| (p.dot(*normal) - d).abs() < tol);
            }
            ExternalObject::Sphere { center, radius } => {
                let c = *center;
                let r = *radius;
                sample_world_grid(fb, camera, *color, move |p| p.distance(c) <= r);
            }
            ExternalObject::Box(b) => {
                let bb = *b;
                sample_world_grid(fb, camera, *color, move |p| bb.contains(p));
            }
        }
    }
}

/// Sample a camera-facing world grid and paint pixels whose world sample
/// satisfies `hit`.
fn sample_world_grid<F: Fn(Vec3) -> bool>(
    fb: &mut Framebuffer,
    camera: &Camera,
    color: Vec3,
    hit: F,
) {
    let (view, w, h) = (&camera.view, camera.width, camera.height);
    let size = view.size();
    for y in 0..h {
        for x in 0..w {
            let wx = view.min.x + (x as Scalar + 0.5) / w as Scalar * size.x;
            let wy = view.min.y + (1.0 - (y as Scalar + 0.5) / h as Scalar) * size.y;
            let p = Vec3::new(wx, wy, 0.0);
            if hit(p) {
                fb.blend(x, y, color, 1.0, Scalar::MAX / 2.0);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psa_math::{Aabb, Rng64};

    /// The kernel as it was before its bounds came from `floor_isize` /
    /// `ceil_isize` and before it skipped rows, its code kept verbatim as the
    /// reference the rewrite must match bit for bit.
    fn reference_particles(
        fb: &mut Framebuffer,
        camera: &Camera,
        particles: &[Particle],
        cfg: &SplatConfig,
    ) -> usize {
        let (w, h) = (fb.width() as isize, fb.height() as isize);
        let mut drawn = 0;
        for p in particles {
            let proj = camera.project(p.position);
            let sum = proj.x + proj.y + proj.z + p.alpha + p.color.x + p.color.y + p.color.z;
            if !sum.is_finite() {
                continue;
            }
            let radius =
                (p.size * proj.pixels_per_unit * cfg.radius_scale).min(cfg.max_radius_px).max(0.5);
            let (cx, cy) = (proj.x, proj.y);
            let r = radius.ceil() as isize;
            let (px, py) = (cx.floor() as isize, cy.floor() as isize);
            if px + r < 0 || py + r < 0 || px - r >= w || py - r >= h {
                continue;
            }
            drawn += 1;
            let r2 = radius * radius;
            for y in (py - r).max(0)..=(py + r).min(h - 1) {
                for x in (px - r).max(0)..=(px + r).min(w - 1) {
                    let dx = x as Scalar + 0.5 - cx;
                    let dy = y as Scalar + 0.5 - cy;
                    let d2 = dx * dx + dy * dy;
                    if d2 > r2 {
                        continue;
                    }
                    let falloff = 1.0 - d2 / r2;
                    if cfg.additive {
                        fb.add(x as usize, y as usize, p.color * (p.alpha * falloff), proj.z);
                    } else {
                        fb.blend(x as usize, y as usize, p.color, p.alpha * falloff, proj.z);
                    }
                }
            }
        }
        drawn
    }

    /// `render_streaks` over [`reference_particles`].
    fn reference_streaks(
        fb: &mut Framebuffer,
        camera: &Camera,
        particles: &[Particle],
        cfg: &SplatConfig,
        streak_length: Scalar,
        steps: usize,
    ) -> usize {
        let mut drawn = 0;
        for p in particles {
            let dir = p.orientation.normalized();
            let mut any = false;
            for s in 0..steps {
                let t = s as Scalar / steps as Scalar;
                let mut sub = *p;
                sub.position = p.position - dir * (streak_length * t);
                sub.alpha = p.alpha * (1.0 - 0.7 * t);
                any |= reference_particles(fb, camera, &[sub], cfg) > 0;
            }
            if any {
                drawn += 1;
            }
        }
        drawn
    }

    /// FNV-1a over a frame's colour and depth bits.
    fn fnv(fb: &Framebuffer) -> u64 {
        fb.bits().iter().flat_map(|b| b.to_le_bytes()).fold(0xcbf2_9ce4_8422_2325, |h, byte| {
            (h ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3)
        })
    }

    /// A seeded population over `view` (and a third beyond it on every
    /// side, so splats lie partly and wholly off-screen). With `snap`,
    /// centres sit on whole and half world units and sizes are whole or
    /// half units, so on a one-pixel-per-unit camera the rim ties
    /// `d2 == r2` and `dy * dy == r2` occur. Alphas straddle the 0.95
    /// depth-write threshold; every 97th particle carries a non-finite
    /// field.
    fn population(seed: u64, n: usize, view: Aabb, snap: bool) -> Vec<Particle> {
        let mut rng = Rng64::new(seed);
        let (lo, hi) = (view.min - view.size() / 3.0, view.max + view.size() / 3.0);
        (0..n)
            .map(|i| {
                let mut at = rng.in_box(lo, hi);
                let mut size = rng.range(0.02, 3.0);
                if snap {
                    at = Vec3::new((at.x * 2.0).round() / 2.0, (at.y * 2.0).round() / 2.0, at.z);
                    size = (size * 2.0).round().max(1.0) / 2.0;
                }
                let alpha = [rng.unit(), 0.95, 0.951, 1.0, rng.range(0.9, 1.0)][i % 5];
                let mut p = Particle::at(at).with_size(size).with_color(Vec3::new(
                    rng.unit(),
                    rng.unit(),
                    rng.unit(),
                ));
                p.alpha = alpha;
                p.orientation = rng.on_unit_sphere();
                if i % 97 == 0 {
                    let bad = [Scalar::NAN, Scalar::INFINITY, Scalar::NEG_INFINITY][i % 3];
                    match i % 5 {
                        0 => p.position.x = bad,
                        1 => p.position.y = bad,
                        2 => p.position.z = bad,
                        3 => p.alpha = bad,
                        _ => p.color.y = bad,
                    }
                }
                p
            })
            .collect()
    }

    #[test]
    fn the_kernel_draws_the_reference_kernels_pixels_bit_for_bit() {
        // One pixel per world unit and a power-of-two extent: snapped
        // centres project exactly onto whole and half pixels.
        let square = Aabb::new(Vec3::splat(-32.0), Vec3::splat(32.0));
        let wide = Aabb::new(Vec3::new(-30.0, -7.0, -20.0), Vec3::new(30.0, 21.0, 20.0));
        let cases = [(square, 64, 64, true), (square, 64, 64, false), (wide, 90, 41, false)];
        // A splat on its rim (falloff exactly 0) changes no colour but
        // turns a -0 channel into +0: over this background a pixel the
        // kernel skips that the reference visited shows.
        let backgrounds = [Vec3::new(0.02, 0.02, 0.05), Vec3::splat(-0.0)];
        let mut draws = 0;
        for (ci, &(view, w, h, snap)) in cases.iter().enumerate() {
            let cam = Camera::ortho(view, w, h);
            let particles = population(0x5EED + ci as u64, 400, view, snap);
            // Radius scales 0.3–40 under the default 16-pixel clamp, then
            // clamps that bind at 2, 5.5 and 64 pixels.
            let scales = [(0.3, 16.0), (1.0, 16.0), (2.5, 16.0), (7.0, 16.0), (40.0, 16.0)];
            for (scale, max) in scales.into_iter().chain([(1.0, 2.0), (40.0, 5.5), (40.0, 64.0)]) {
                for additive in [false, true] {
                    for &background in &backgrounds {
                        let cfg = SplatConfig { additive, radius_scale: scale, max_radius_px: max };
                        let at = format!("case {ci} scale {scale} max {max} add {additive}");
                        let (mut got, mut want) = (Framebuffer::new(w, h), Framebuffer::new(w, h));
                        got.clear(background);
                        want.clear(background);
                        let n = render_particles(&mut got, &cam, &particles, &cfg);
                        assert_eq!(
                            n,
                            reference_particles(&mut want, &cam, &particles, &cfg),
                            "{at}"
                        );
                        assert!(got.bits() == want.bits(), "{at}: pixels differ");
                        got.clear(background);
                        want.clear(background);
                        let streaks = &particles[..100];
                        let n = render_streaks(&mut got, &cam, streaks, &cfg, 2.5, 3);
                        let m = reference_streaks(&mut want, &cam, streaks, &cfg, 2.5, 3);
                        assert_eq!(n, m, "{at}: streaks");
                        assert!(got.bits() == want.bits(), "{at}: streak pixels differ");
                        draws += n;
                    }
                }
            }
        }
        assert!(draws > 0);
    }

    /// FNV-1a of the colour and depth planes of a 640 × 480 frame of
    /// 20,000 seeded particles, blended and additive — recorded with the
    /// kernel [`reference_particles`] keeps.
    #[test]
    fn a_seeded_640_by_480_frame_keeps_its_pixels() {
        let view = Aabb::new(Vec3::new(-42.0, -1.0, -42.0), Vec3::new(42.0, 36.0, 42.0));
        let cam = Camera::ortho(view, 640, 480);
        let particles = population(0x640_480, 20_000, view, false);
        let mut hashes = [0; 2];
        for (additive, hash) in [false, true].into_iter().zip(&mut hashes) {
            let mut fb = Framebuffer::new(640, 480);
            fb.clear(Vec3::new(0.02, 0.02, 0.05));
            let cfg = SplatConfig { additive, radius_scale: 0.6, ..Default::default() };
            render_particles(&mut fb, &cam, &particles, &cfg);
            *hash = fnv(&fb);
        }
        assert_eq!(hashes, [0x2681_41b8_aa91_7e5f, 0x478c_1d87_8360_0a82], "{hashes:#018x?}");
    }

    /// A dot is one record or one cull, a streak of three is three of
    /// either, and a particle is culled whole exactly where it draws
    /// nothing — over the reference test's population, whose splats lie
    /// partly and wholly off-screen and whose every 97th particle carries a
    /// non-finite field.
    #[test]
    fn a_particle_makes_a_record_per_splat_it_draws() {
        let view = Aabb::new(Vec3::splat(-32.0), Vec3::splat(32.0));
        let cam = Camera::ortho(view, 64, 64);
        let cfg = SplatConfig { radius_scale: 2.5, ..Default::default() };
        let (mut dots, mut streaks) = ([0; 2], [0; 2]);
        for p in population(0x5EED, 400, view, false) {
            let mut fb = Framebuffer::new(64, 64);
            let mut out = Vec::new();
            let culled = push_splats(&mut out, &cam, &cfg, None, &p);
            assert_eq!(out.len() + culled, 1);
            assert_eq!(out.len(), render_particles(&mut fb, &cam, &[p], &cfg));
            dots[culled] += 1;
            out.clear();
            let streak = NonZeroUsize::new(3).map(|steps| (2.5, steps));
            let culled = push_splats(&mut out, &cam, &cfg, streak, &p);
            assert_eq!(out.len() + culled, 3);
            let drawn = render_streaks(&mut fb, &cam, &[p], &cfg, 2.5, 3);
            assert_eq!(drawn, usize::from(culled < 3));
            streaks[usize::from(out.is_empty())] += 1;
            assert!(out.iter().all(|s| s.x0 <= s.x1 && s.x1 < 64 && s.y0 <= s.y1 && s.y1 < 64));
        }
        assert!(dots.iter().chain(&streaks).all(|&n| n > 0), "{dots:?} {streaks:?}");
    }

    /// α = 0 is not culled: the splat changes no colour, but over a −0
    /// channel `−0 · 1 + c · 0` is +0, so dropping it would change bits.
    #[test]
    fn a_zero_alpha_splat_is_drawn_not_culled() {
        let (_, cam) = scene();
        let mut p = Particle::at(Vec3::ZERO).with_size(1.0);
        p.alpha = 0.0;
        for additive in [false, true] {
            let cfg = SplatConfig { additive, ..Default::default() };
            let mut out = Vec::new();
            assert_eq!(push_splats(&mut out, &cam, &cfg, None, &p), 0, "additive {additive}");
            assert_eq!(out.len(), 1);
            let mut fb = Framebuffer::new(64, 64);
            fb.clear(Vec3::splat(-0.0));
            assert_eq!(render_particles(&mut fb, &cam, &[p], &cfg), 1);
            assert_eq!(fb.pixel(32, 32).x.to_bits(), 0, "additive {additive}: −0 became +0");
        }
    }

    /// Records made for a 64 × 64 viewport, drawn into a 40 × 24 frame,
    /// are clamped to it: its pixels are the 64 × 64 frame's top-left
    /// corner, bit for bit.
    #[test]
    fn a_record_for_a_larger_viewport_draws_only_the_pixels_the_frame_has() {
        let view = Aabb::new(Vec3::splat(-32.0), Vec3::splat(32.0));
        let cam = Camera::ortho(view, 64, 64);
        let cfg = SplatConfig { radius_scale: 2.5, ..Default::default() };
        let mut splats = Vec::new();
        for p in population(0xC0E, 400, view, false) {
            push_splats(&mut splats, &cam, &cfg, None, &p);
        }
        let (mut full, mut small) = (Framebuffer::new(64, 64), Framebuffer::new(40, 24));
        full.clear(Vec3::splat(-0.0));
        small.clear(Vec3::splat(-0.0));
        draw_splats(&mut full, &splats, false);
        draw_splats(&mut small, &splats, false);
        for y in 0..24 {
            for x in 0..40 {
                let bits = |c: Vec3| [c.x, c.y, c.z].map(Scalar::to_bits);
                assert_eq!(bits(small.pixel(x, y)), bits(full.pixel(x, y)), "({x}, {y})");
            }
        }
        assert!(small.lit_pixels(Vec3::splat(-0.0)) > 0);
    }

    #[test]
    fn a_splat_beyond_isize_neither_panics_nor_wraps() {
        let (_, cam) = scene();
        // 3e18 world units project past 9.2e18 pixels: the centre
        // saturates and the splat misses the screen.
        for at in [
            Vec3::new(3e18, 0.0, 0.0),
            Vec3::new(-3e18, 0.0, 0.0),
            Vec3::new(0.0, 3e18, 0.0),
            Vec3::new(0.0, -3e18, 0.0),
        ] {
            let (mut fb, _) = scene();
            let p = Particle::at(at).with_size(1.0);
            assert_eq!(render_particles(&mut fb, &cam, &[p], &SplatConfig::default()), 0, "{at:?}");
            assert_eq!(fb.lit_pixels(Vec3::ZERO), 0, "{at:?}");
        }
        // A radius past isize saturates too, and its disc covers the
        // screen — from the centre or from 3e18 world units away.
        let huge = SplatConfig { max_radius_px: Scalar::MAX, ..Default::default() };
        for at in [Vec3::ZERO, Vec3::new(3e18, 0.0, 0.0)] {
            let (mut fb, _) = scene();
            let p = Particle::at(at).with_size(4e18);
            assert_eq!(render_particles(&mut fb, &cam, &[p], &huge), 1, "{at:?}");
            assert_eq!(fb.lit_pixels(Vec3::ZERO), 64 * 64, "{at:?}");
        }
        // One whose squared radius overflows is not drawn.
        let (mut fb, _) = scene();
        let p = Particle::at(Vec3::new(3e18, 0.0, 0.0)).with_size(1e30);
        assert_eq!(render_particles(&mut fb, &cam, &[p], &huge), 0);
        assert_eq!(fb.lit_pixels(Vec3::ZERO), 0);
    }

    fn scene() -> (Framebuffer, Camera) {
        let mut fb = Framebuffer::new(64, 64);
        fb.clear(Vec3::ZERO);
        let cam = Camera::ortho(
            Aabb::new(Vec3::new(-10.0, -10.0, -10.0), Vec3::new(10.0, 10.0, 10.0)),
            64,
            64,
        );
        (fb, cam)
    }

    #[test]
    fn single_particle_lights_pixels() {
        let (mut fb, cam) = scene();
        let p = Particle::at(Vec3::ZERO).with_size(1.0);
        let drawn = render_particles(&mut fb, &cam, &[p], &SplatConfig::default());
        assert_eq!(drawn, 1);
        assert!(fb.lit_pixels(Vec3::ZERO) > 0);
        // center pixel should be brightest
        assert!(fb.pixel(32, 32).length() > 0.5);
    }

    #[test]
    fn offscreen_particle_skipped() {
        let (mut fb, cam) = scene();
        let p = Particle::at(Vec3::new(1000.0, 0.0, 0.0));
        let drawn = render_particles(&mut fb, &cam, &[p], &SplatConfig::default());
        assert_eq!(drawn, 0);
        assert_eq!(fb.lit_pixels(Vec3::ZERO), 0);
    }

    #[test]
    fn nearer_particle_occludes() {
        let (mut fb, cam) = scene();
        let far = Particle::at(Vec3::new(0.0, 0.0, -5.0)).with_color(Vec3::X);
        let near = Particle::at(Vec3::new(0.0, 0.0, 5.0)).with_color(Vec3::Y);
        // draw near first, far second: far must not overwrite
        render_particles(&mut fb, &cam, &[near], &SplatConfig::default());
        render_particles(&mut fb, &cam, &[far], &SplatConfig::default());
        let c = fb.pixel(32, 32);
        assert!(c.y > c.x, "near (green) must win: {c:?}");
    }

    #[test]
    fn additive_mode_accumulates() {
        let (mut fb, cam) = scene();
        let p = Particle::at(Vec3::ZERO).with_color(Vec3::splat(0.3));
        let cfg = SplatConfig { additive: true, ..Default::default() };
        render_particles(&mut fb, &cam, &[p, p], &cfg);
        assert!(fb.pixel(32, 32).x > 0.3, "two additive splats stack");
    }

    #[test]
    fn radius_clamp_bounds_work() {
        let (mut fb, cam) = scene();
        let huge = Particle::at(Vec3::ZERO).with_size(1000.0);
        let cfg = SplatConfig { max_radius_px: 2.0, ..Default::default() };
        render_particles(&mut fb, &cam, &[huge], &cfg);
        // radius clamp of 2px → at most ~5x5 box of lit pixels
        assert!(fb.lit_pixels(Vec3::ZERO) <= 25);
    }

    /// `bad` must count as not drawn, as a dot or a streak, blended or
    /// additive, and leave every pixel a later finite splat touches as a
    /// frame without `bad` has it.
    fn assert_skipped(bad: Particle, field: &str) {
        let good = Particle::at(Vec3::ZERO).with_size(1.0);
        for additive in [false, true] {
            let cfg = SplatConfig { additive, ..Default::default() };
            for streaks in [false, true] {
                let at = format!("{field}: additive {additive}, streaks {streaks}");
                let draw = |fb: &mut Framebuffer, cam: &Camera, p: Particle| {
                    if streaks {
                        render_streaks(fb, cam, &[p], &cfg, 2.0, 4)
                    } else {
                        render_particles(fb, cam, &[p], &cfg)
                    }
                };
                let (mut fb, cam) = scene();
                assert_eq!(draw(&mut fb, &cam, bad), 0, "{at}");
                assert_eq!(fb.lit_pixels(Vec3::ZERO), 0, "{at}");
                assert_eq!(draw(&mut fb, &cam, good), 1, "{at}");
                let (mut want, _) = scene();
                draw(&mut want, &cam, good);
                assert!(fb.bits() == want.bits(), "{at}");
            }
        }
    }

    #[test]
    fn a_particle_with_a_non_finite_position_is_not_drawn() {
        for v in [Scalar::NAN, Scalar::INFINITY, Scalar::NEG_INFINITY] {
            assert_skipped(Particle::at(Vec3::new(v, 0.0, 0.0)), &format!("x = {v}"));
            assert_skipped(Particle::at(Vec3::new(0.0, v, 0.0)), &format!("y = {v}"));
            assert_skipped(Particle::at(Vec3::new(0.0, 0.0, v)), &format!("z = {v}"));
        }
    }

    #[test]
    fn a_particle_with_a_non_finite_alpha_is_not_drawn() {
        for v in [Scalar::NAN, Scalar::INFINITY, Scalar::NEG_INFINITY] {
            let mut p = Particle::at(Vec3::ZERO).with_size(1.0);
            p.alpha = v;
            assert_skipped(p, &format!("alpha = {v}"));
        }
    }

    #[test]
    fn a_particle_with_a_non_finite_colour_is_not_drawn() {
        for v in [Scalar::NAN, Scalar::INFINITY, Scalar::NEG_INFINITY] {
            for channel in 0..3 {
                let mut rgb = [0.5; 3];
                rgb[channel] = v;
                let p = Particle::at(Vec3::ZERO).with_size(1.0).with_color(Vec3::from(rgb));
                assert_skipped(p, &format!("colour[{channel}] = {v}"));
            }
        }
    }

    #[test]
    fn streaks_extend_along_orientation() {
        let (mut fb, cam) = scene();
        let mut p = Particle::at(Vec3::ZERO).with_size(0.5);
        p.orientation = Vec3::Y;
        let drawn = render_streaks(&mut fb, &cam, &[p], &SplatConfig::default(), 3.0, 6);
        assert_eq!(drawn, 1);
        // streak trails upward from the head (orientation is the fall
        // direction reversed in screen space: tail at -dir... here +y tail)
        let lit = fb.lit_pixels(Vec3::ZERO);
        let (mut fb2, _) = scene();
        render_particles(&mut fb2, &cam, &[p], &SplatConfig::default());
        let dot = fb2.lit_pixels(Vec3::ZERO);
        assert!(lit > dot, "streak {lit} px must cover more than dot {dot} px");
    }

    #[test]
    fn streak_tail_is_fainter_than_head() {
        let (mut fb, cam) = scene();
        let mut p = Particle::at(Vec3::ZERO).with_size(0.8);
        p.orientation = Vec3::Y;
        render_streaks(&mut fb, &cam, &[p], &SplatConfig::default(), 6.0, 8);
        // head at (32,32); tail ~19 px up the screen (y smaller is up? tail
        // at position - dir*len → world y smaller → screen y larger)
        let head = fb.pixel(32, 32).length();
        let tail = fb.pixel(32, 50).length();
        assert!(head > tail, "head {head} should outshine tail {tail}");
        assert!(tail > 0.0, "tail still visible");
    }

    #[test]
    fn ground_plane_renders_band() {
        let (mut fb, cam) = scene();
        render_objects(&mut fb, &cam, &[(ExternalObject::ground(0.0), Vec3::new(0.2, 0.4, 0.2))]);
        assert!(fb.lit_pixels(Vec3::ZERO) > 0);
    }

    #[test]
    fn sphere_object_renders_disc() {
        let (mut fb, cam) = scene();
        render_objects(
            &mut fb,
            &cam,
            &[(ExternalObject::Sphere { center: Vec3::ZERO, radius: 3.0 }, Vec3::X)],
        );
        let lit = fb.lit_pixels(Vec3::ZERO);
        // a radius-3 disc in a 20-unit/64-px view ≈ π(3/20·64)² ≈ 290 px
        assert!(lit > 150 && lit < 500, "lit {lit}");
    }
}
