//! RGB framebuffer with z-buffer.

use psa_math::{clamp, Scalar, Vec3};

/// A linear-color RGB framebuffer with a depth buffer.
#[derive(Debug)]
pub struct Framebuffer {
    width: usize,
    height: usize,
    /// Linear RGB, row-major.
    color: Vec<Vec3>,
    /// Depth per pixel; larger = farther. Cleared to +inf.
    depth: Vec<Scalar>,
}

impl Clone for Framebuffer {
    fn clone(&self) -> Self {
        Framebuffer {
            width: self.width,
            height: self.height,
            color: self.color.clone(),
            depth: self.depth.clone(),
        }
    }

    /// Copies into the planes `self` already owns (the derived `clone_from`
    /// would allocate two new ones): how a frame starts from a backdrop
    /// drawn once.
    fn clone_from(&mut self, source: &Self) {
        self.width = source.width;
        self.height = source.height;
        self.color.clone_from(&source.color);
        self.depth.clone_from(&source.depth);
    }
}

impl Framebuffer {
    pub fn new(width: usize, height: usize) -> Self {
        assert!(width > 0 && height > 0, "framebuffer must be non-empty");
        Framebuffer {
            width,
            height,
            color: vec![Vec3::ZERO; width * height],
            depth: vec![Scalar::INFINITY; width * height],
        }
    }

    pub fn width(&self) -> usize {
        self.width
    }

    pub fn height(&self) -> usize {
        self.height
    }

    /// Reset to a background color and infinite depth.
    pub fn clear(&mut self, background: Vec3) {
        self.color.fill(background);
        self.depth.fill(Scalar::INFINITY);
    }

    #[inline]
    fn idx(&self, x: usize, y: usize) -> usize {
        debug_assert!(x < self.width && y < self.height);
        y * self.width + x
    }

    /// Read a pixel.
    pub fn pixel(&self, x: usize, y: usize) -> Vec3 {
        self.color[self.idx(x, y)]
    }

    /// Alpha-blend `rgb` over the pixel if `z` passes the depth test
    /// (closer-or-equal). Depth is only *written* for effectively opaque
    /// splats so translucent particles accumulate.
    #[inline]
    pub fn blend(&mut self, x: usize, y: usize, rgb: Vec3, alpha: Scalar, z: Scalar) {
        let i = self.idx(x, y);
        if z > self.depth[i] {
            return;
        }
        let a = clamp(alpha, 0.0, 1.0);
        self.color[i] = self.color[i] * (1.0 - a) + rgb * a;
        if a > 0.95 {
            self.depth[i] = z;
        }
    }

    /// Additive blend (fireworks-style glow); ignores the depth test but
    /// respects already-written opaque depth.
    #[inline]
    pub fn add(&mut self, x: usize, y: usize, rgb: Vec3, z: Scalar) {
        let i = self.idx(x, y);
        if z > self.depth[i] {
            return;
        }
        self.color[i] += rgb;
    }

    /// Convert to 8-bit sRGB-ish bytes (gamma 2.2), row-major RGB.
    pub fn to_rgb8(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.color.len() * 3);
        for c in &self.color {
            for ch in [c.x, c.y, c.z] {
                let v = clamp(ch, 0.0, 1.0).powf(1.0 / 2.2);
                out.push((v * 255.0 + 0.5) as u8);
            }
        }
        out
    }

    /// Mean luminance — cheap test/diagnostic scalar.
    pub fn mean_luminance(&self) -> f64 {
        if self.color.is_empty() {
            return 0.0;
        }
        let sum: f64 =
            self.color.iter().map(|c| (0.2126 * c.x + 0.7152 * c.y + 0.0722 * c.z) as f64).sum();
        sum / self.color.len() as f64
    }

    /// Every colour and depth bit, pixel by pixel: what the pixel tests
    /// compare and pin.
    #[cfg(test)]
    pub(crate) fn bits(&self) -> Vec<u32> {
        let pixel = |(c, d): (&Vec3, &Scalar)| [c.x, c.y, c.z, *d].map(Scalar::to_bits);
        self.color.iter().zip(&self.depth).flat_map(pixel).collect()
    }

    /// Count pixels whose color differs from `background`.
    pub fn lit_pixels(&self, background: Vec3) -> usize {
        self.color.iter().filter(|&&c| c != background).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clear_sets_everything() {
        let mut fb = Framebuffer::new(4, 3);
        fb.clear(Vec3::new(0.1, 0.2, 0.3));
        assert_eq!(fb.pixel(0, 0), Vec3::new(0.1, 0.2, 0.3));
        assert_eq!(fb.pixel(3, 2), Vec3::new(0.1, 0.2, 0.3));
        assert_eq!(fb.lit_pixels(Vec3::new(0.1, 0.2, 0.3)), 0);
    }

    #[test]
    fn a_frame_started_from_the_cloned_backdrop_is_the_frame_drawn_from_scratch() {
        use crate::{render_objects, render_particles, Camera, SplatConfig};
        use psa_core::objects::ExternalObject;
        use psa_core::Particle;
        use psa_math::Aabb;

        let cam = Camera::ortho(Aabb::centered_cube(10.0), 48, 32);
        let background = Vec3::new(0.02, 0.02, 0.05);
        let objects = [
            (ExternalObject::ground(-4.0), Vec3::new(0.2, 0.5, 0.2)),
            (ExternalObject::Sphere { center: Vec3::new(3.0, 1.0, 0.0), radius: 2.5 }, Vec3::X),
        ];
        let frame_particles = |frame: usize| -> Vec<Particle> {
            (0..40)
                .map(|i| {
                    let t = (i * 7 + frame * 13) as Scalar;
                    let at = Vec3::new((t * 0.37).sin() * 9.0, (t * 0.11).cos() * 9.0, t % 5.0);
                    Particle::at(at).with_size(0.3 + (i % 4) as Scalar * 0.4)
                })
                .collect()
        };

        // The image generator's way: the backdrop once, a copy per frame.
        let mut backdrop = Framebuffer::new(48, 32);
        backdrop.clear(background);
        render_objects(&mut backdrop, &cam, &objects);
        let mut cached = backdrop.clone();
        let planes = (cached.color.as_ptr(), cached.depth.as_ptr());
        let mut scratch = Framebuffer::new(48, 32);
        for frame in 0..3 {
            let particles = frame_particles(frame);
            cached.clone_from(&backdrop);
            render_particles(&mut cached, &cam, &particles, &SplatConfig::default());
            scratch.clear(background);
            render_objects(&mut scratch, &cam, &objects);
            render_particles(&mut scratch, &cam, &particles, &SplatConfig::default());
            assert!(cached.bits() == scratch.bits(), "frame {frame}");
            assert!(cached.bits() != backdrop.bits(), "frame {frame} drew nothing");
        }
        assert_eq!(
            (cached.color.as_ptr(), cached.depth.as_ptr()),
            planes,
            "clone_from reallocated"
        );
    }

    #[test]
    fn blend_respects_depth() {
        let mut fb = Framebuffer::new(2, 2);
        fb.clear(Vec3::ZERO);
        fb.blend(0, 0, Vec3::ONE, 1.0, 1.0); // opaque at depth 1
        fb.blend(0, 0, Vec3::X, 1.0, 2.0); // behind: rejected
        assert_eq!(fb.pixel(0, 0), Vec3::ONE);
        fb.blend(0, 0, Vec3::X, 1.0, 0.5); // in front: wins
        assert_eq!(fb.pixel(0, 0), Vec3::X);
    }

    #[test]
    fn translucent_blend_accumulates() {
        let mut fb = Framebuffer::new(1, 1);
        fb.clear(Vec3::ZERO);
        fb.blend(0, 0, Vec3::ONE, 0.5, 1.0);
        assert_eq!(fb.pixel(0, 0), Vec3::splat(0.5));
        // translucent splat must not write depth: same-depth splats keep
        // accumulating
        fb.blend(0, 0, Vec3::ONE, 0.5, 1.0);
        assert_eq!(fb.pixel(0, 0), Vec3::splat(0.75));
    }

    #[test]
    fn additive_blend() {
        let mut fb = Framebuffer::new(1, 1);
        fb.clear(Vec3::ZERO);
        fb.add(0, 0, Vec3::splat(0.4), 1.0);
        fb.add(0, 0, Vec3::splat(0.4), 1.0);
        assert_eq!(fb.pixel(0, 0), Vec3::splat(0.8));
    }

    #[test]
    fn rgb8_gamma_and_clamp() {
        let mut fb = Framebuffer::new(1, 1);
        fb.clear(Vec3::new(2.0, 0.0, 1.0)); // over-range red
        let bytes = fb.to_rgb8();
        assert_eq!(bytes, vec![255, 0, 255]);
    }

    #[test]
    fn mean_luminance_behaves() {
        let mut fb = Framebuffer::new(2, 1);
        fb.clear(Vec3::ZERO);
        assert_eq!(fb.mean_luminance(), 0.0);
        fb.blend(0, 0, Vec3::ONE, 1.0, 0.0);
        assert!(fb.mean_luminance() > 0.0);
    }

    #[test]
    #[should_panic]
    fn zero_size_panics() {
        let _ = Framebuffer::new(0, 5);
    }
}
