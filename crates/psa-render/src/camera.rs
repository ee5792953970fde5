//! The image generator's camera: an orthographic view down -z.

use psa_math::{Aabb, Scalar, Vec3};

/// Projection of a world point to the screen.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Projected {
    /// Pixel x (may be off-screen; the rasterizer clips).
    pub x: Scalar,
    /// Pixel y.
    pub y: Scalar,
    /// Depth for the z-buffer (larger = farther).
    pub z: Scalar,
    /// World-to-pixel scale at this depth (for splat radii).
    pub pixels_per_unit: Scalar,
}

/// An orthographic camera looking down -z: the world rectangle `view`
/// maps to the full `width × height` viewport.
#[derive(Clone, Debug, PartialEq)]
pub struct Camera {
    pub(crate) view: Aabb,
    pub(crate) width: usize,
    pub(crate) height: usize,
}

impl Camera {
    /// An orthographic camera framing `view` (xy extents used; z kept for
    /// depth ordering).
    pub fn ortho(view: Aabb, width: usize, height: usize) -> Self {
        Camera { view, width, height }
    }

    pub fn viewport(&self) -> (usize, usize) {
        (self.width, self.height)
    }

    /// Project a world point.
    pub fn project(&self, p: Vec3) -> Projected {
        let size = self.view.size();
        let sx = (p.x - self.view.min.x) / size.x;
        // screen y grows downward
        let sy = 1.0 - (p.y - self.view.min.y) / size.y;
        Projected {
            x: sx * self.width as Scalar,
            y: sy * self.height as Scalar,
            z: -p.z,
            pixels_per_unit: self.width as Scalar / size.x,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ortho() -> Camera {
        Camera::ortho(
            Aabb::new(Vec3::new(-10.0, -10.0, -10.0), Vec3::new(10.0, 10.0, 10.0)),
            200,
            100,
        )
    }

    #[test]
    fn ortho_center_maps_to_middle() {
        let c = ortho();
        let p = c.project(Vec3::ZERO);
        assert!((p.x - 100.0).abs() < 1e-3);
        assert!((p.y - 50.0).abs() < 1e-3);
    }

    #[test]
    fn ortho_y_is_flipped() {
        let c = ortho();
        let top = c.project(Vec3::new(0.0, 9.0, 0.0));
        let bottom = c.project(Vec3::new(0.0, -9.0, 0.0));
        assert!(top.y < bottom.y, "screen y grows downward");
    }

    #[test]
    fn ortho_depth_orders_by_negative_z() {
        let c = ortho();
        let near = c.project(Vec3::new(0.0, 0.0, 5.0));
        let far = c.project(Vec3::new(0.0, 0.0, -5.0));
        assert!(near.z < far.z);
    }
}
