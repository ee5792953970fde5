//! Generation/test domains — the `pDomain` vocabulary of McAllister's API.
//!
//! A domain is a region of space that can (a) generate uniformly-ish
//! distributed points and (b) answer membership queries. The original API
//! ships the same dual-use shapes. A half-space test is
//! `psa_core::objects::ExternalObject::Plane`'s, the obstacle `p_bounce`
//! takes.

use psa_core::system::EmissionShape;
use psa_math::{Aabb, Rng64, Scalar, Vec3};

/// A generation/test domain.
///
/// `Point`, `Box` and `Disc` draw through their psa-core twin, the
/// [`EmissionShape`] of the same name: the same draws and the same bits,
/// so a compiled system emits exactly what immediate mode does. The other
/// shapes stay API-only: psa-core's `Sphere` is a surface where this one is
/// a solid ball or shell, and `Line`, `Triangle`, `Cylinder`, `Cone` and
/// `Blob` have no twin.
#[derive(Clone, Debug, PartialEq)]
pub enum PDomain {
    /// A single point.
    Point(Vec3),
    /// The segment from `a` to `b`.
    Line { a: Vec3, b: Vec3 },
    /// The triangle `a b c` (uniform via barycentric sampling).
    Triangle { a: Vec3, b: Vec3, c: Vec3 },
    /// An axis-aligned box.
    Box(Aabb),
    /// A spherical shell between `r_inner` and `r_outer` (solid when
    /// `r_inner == 0`).
    Sphere { center: Vec3, r_outer: Scalar, r_inner: Scalar },
    /// A disc of radius `r` with unit normal `n`.
    Disc { center: Vec3, radius: Scalar, normal: Vec3 },
    /// A cylinder from `base` along `axis` with the given radius.
    Cylinder { base: Vec3, axis: Vec3, radius: Scalar },
    /// A cone with apex `apex`, axis direction `axis` (length = height)
    /// and base radius `radius`.
    Cone { apex: Vec3, axis: Vec3, radius: Scalar },
    /// A Gaussian blob (generates normally-distributed points; membership
    /// is within 3σ).
    Blob { center: Vec3, stdev: Scalar },
}

impl PDomain {
    /// Draw a point from the domain.
    pub fn generate(&self, rng: &mut Rng64) -> Vec3 {
        self.twin_or_draw(rng).map_or_else(|drawn| drawn, |twin| twin.sample(rng))
    }

    /// This domain's psa-core twin, if it has one (see [`PDomain`]).
    pub(crate) fn emission_shape(&self) -> Option<EmissionShape> {
        // A shape without a twin draws its point from a scratch stream.
        self.twin_or_draw(&mut Rng64::new(0)).ok()
    }

    /// The one place the twins are named: `Ok` hands one over, and an
    /// API-only shape draws its point here instead.
    fn twin_or_draw(&self, rng: &mut Rng64) -> Result<EmissionShape, Vec3> {
        Err(match *self {
            PDomain::Point(p) => return Ok(EmissionShape::Point(p)),
            PDomain::Box(b) => return Ok(EmissionShape::Box { min: b.min, max: b.max }),
            PDomain::Disc { center, radius, normal } => {
                return Ok(EmissionShape::Disc { center, radius, normal })
            }
            PDomain::Line { a, b } => a.lerp(b, rng.unit()),
            PDomain::Triangle { a, b, c } => {
                let (mut u, mut v) = (rng.unit(), rng.unit());
                if u + v > 1.0 {
                    u = 1.0 - u;
                    v = 1.0 - v;
                }
                a + (b - a) * u + (c - a) * v
            }
            PDomain::Sphere { center, r_outer, r_inner } => {
                // radius via inverse CDF of r² density between shells
                let u = rng.unit();
                let r3 = r_inner.powi(3) + u * (r_outer.powi(3) - r_inner.powi(3));
                center + rng.on_unit_sphere() * r3.cbrt()
            }
            PDomain::Cylinder { base, axis, radius } => {
                let t = rng.unit();
                base + axis * t + rng.on_disc(radius, axis)
            }
            PDomain::Cone { apex, axis, radius } => {
                // uniform in height³ so density is uniform in volume
                let t = rng.unit().cbrt();
                apex + axis * t + rng.on_disc(radius * t, axis)
            }
            PDomain::Blob { center, stdev } => {
                center
                    + Vec3::new(
                        rng.normal(0.0, stdev),
                        rng.normal(0.0, stdev),
                        rng.normal(0.0, stdev),
                    )
            }
        })
    }

    /// Membership test (within a small tolerance for lower-dimensional
    /// shapes).
    pub fn within(&self, p: Vec3) -> bool {
        const EPS: Scalar = 1e-3;
        match self {
            PDomain::Point(q) => p.distance(*q) < EPS,
            PDomain::Line { a, b } => {
                let ab = *b - *a;
                let t = ((p - *a).dot(ab) / ab.length_squared()).clamp(0.0, 1.0);
                p.distance(*a + ab * t) < EPS
            }
            PDomain::Triangle { a, b, c } => {
                // project onto the triangle plane and do barycentric test
                let n = (*b - *a).cross(*c - *a);
                let area2 = n.length();
                if area2 < EPS {
                    return false;
                }
                let dist = (p - *a).dot(n.normalized());
                if dist.abs() > EPS {
                    return false;
                }
                let q = p - n.normalized() * dist;
                let w1 = (*b - q).cross(*c - q).length() / area2;
                let w2 = (*c - q).cross(*a - q).length() / area2;
                let w3 = (*a - q).cross(*b - q).length() / area2;
                (w1 + w2 + w3 - 1.0).abs() < 1e-2
            }
            PDomain::Box(bx) => bx.contains(p),
            PDomain::Sphere { center, r_outer, r_inner } => {
                let d = p.distance(*center);
                d <= *r_outer && d >= *r_inner
            }
            PDomain::Disc { center, radius, normal } => {
                let rel = p - *center;
                rel.dot(normal.normalized()).abs() < EPS && rel.length() <= *radius
            }
            PDomain::Cylinder { base, axis, radius } => {
                let t = (p - *base).dot(*axis) / axis.length_squared();
                if !(0.0..=1.0).contains(&t) {
                    return false;
                }
                let closest = *base + *axis * t;
                p.distance(closest) <= *radius
            }
            PDomain::Cone { apex, axis, radius } => {
                let t = (p - *apex).dot(*axis) / axis.length_squared();
                if !(0.0..=1.0).contains(&t) {
                    return false;
                }
                let closest = *apex + *axis * t;
                p.distance(closest) <= radius * t
            }
            PDomain::Blob { center, stdev } => p.distance(*center) <= 3.0 * *stdev,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> Rng64 {
        Rng64::new(0xD0)
    }

    /// Every generating domain must produce points it classifies as inside.
    #[test]
    fn generate_lands_within() {
        let domains = vec![
            PDomain::Point(Vec3::new(1.0, 2.0, 3.0)),
            PDomain::Line { a: Vec3::ZERO, b: Vec3::new(4.0, 0.0, 0.0) },
            PDomain::Triangle {
                a: Vec3::ZERO,
                b: Vec3::new(2.0, 0.0, 0.0),
                c: Vec3::new(0.0, 2.0, 0.0),
            },
            PDomain::Box(Aabb::centered_cube(2.0)),
            PDomain::Sphere { center: Vec3::ONE, r_outer: 2.0, r_inner: 1.0 },
            PDomain::Disc { center: Vec3::ZERO, radius: 1.5, normal: Vec3::Y },
            PDomain::Cylinder { base: Vec3::ZERO, axis: Vec3::Y * 3.0, radius: 0.5 },
            PDomain::Cone { apex: Vec3::ZERO, axis: Vec3::Y * 2.0, radius: 1.0 },
            PDomain::Blob { center: Vec3::ZERO, stdev: 0.3 },
        ];
        let mut r = rng();
        for d in domains {
            for _ in 0..200 {
                let p = d.generate(&mut r);
                // Blob: allow the 3σ cutoff to clip a tiny tail
                if let PDomain::Blob { .. } = d {
                    continue;
                }
                assert!(d.within(p), "{d:?} generated {p:?} outside itself");
            }
        }
    }

    /// Point, Box and Disc have a psa-core twin that draws their points
    /// bit for bit; no other shape has one.
    #[test]
    fn twins_draw_the_same_bits() {
        let twins = [
            PDomain::Point(Vec3::new(1.0, 2.0, 3.0)),
            PDomain::Box(Aabb::centered_cube(2.0)),
            PDomain::Disc { center: Vec3::ONE, radius: 1.5, normal: Vec3::new(0.3, 1.0, 0.2) },
        ];
        for d in &twins {
            let shape = d.emission_shape().expect("a twin");
            let (mut a, mut b) = (rng(), rng());
            for _ in 0..50 {
                assert_eq!(d.generate(&mut a), shape.sample(&mut b), "{d:?}");
            }
            assert_eq!(a.state(), b.state());
        }
        let api_only = [
            PDomain::Line { a: Vec3::ZERO, b: Vec3::X },
            PDomain::Sphere { center: Vec3::ZERO, r_outer: 1.0, r_inner: 0.0 },
            PDomain::Cone { apex: Vec3::ZERO, axis: Vec3::Y, radius: 1.0 },
            PDomain::Blob { center: Vec3::ZERO, stdev: 1.0 },
        ];
        assert!(api_only.iter().all(|d| d.emission_shape().is_none()));
    }

    #[test]
    fn shell_respects_inner_radius() {
        let d = PDomain::Sphere { center: Vec3::ZERO, r_outer: 2.0, r_inner: 1.5 };
        let mut r = rng();
        for _ in 0..500 {
            let p = d.generate(&mut r);
            let dist = p.length();
            assert!((1.5..=2.0 + 1e-4).contains(&dist), "dist {dist}");
        }
    }

    #[test]
    fn cone_is_narrow_at_apex() {
        let d = PDomain::Cone { apex: Vec3::ZERO, axis: Vec3::Y * 2.0, radius: 1.0 };
        assert!(d.within(Vec3::new(0.0, 1.9, 0.0)));
        assert!(d.within(Vec3::new(0.8, 1.9, 0.0)));
        assert!(!d.within(Vec3::new(0.8, 0.2, 0.0)), "wide point near apex is outside");
        assert!(!d.within(Vec3::new(0.0, 2.5, 0.0)));
    }

    #[test]
    fn line_membership() {
        let d = PDomain::Line { a: Vec3::ZERO, b: Vec3::new(2.0, 0.0, 0.0) };
        assert!(d.within(Vec3::new(1.0, 0.0, 0.0)));
        assert!(!d.within(Vec3::new(1.0, 0.5, 0.0)));
        assert!(!d.within(Vec3::new(3.0, 0.0, 0.0)));
    }

    #[test]
    fn blob_moments() {
        let d = PDomain::Blob { center: Vec3::new(5.0, 0.0, 0.0), stdev: 0.5 };
        let mut r = rng();
        let n = 2000;
        let mean: Vec3 = (0..n).fold(Vec3::ZERO, |acc, _| acc + d.generate(&mut r)) / n as f32;
        assert!((mean.x - 5.0).abs() < 0.1, "mean {mean:?}");
        assert!(mean.y.abs() < 0.1);
    }
}
