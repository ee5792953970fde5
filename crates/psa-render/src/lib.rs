//! Software renderer for the image generator process.
//!
//! The paper's image generator "collects the particles sent by the
//! calculators and renders each one of the frames of the animation", plus
//! any external objects in the scene. This crate is that renderer: a
//! z-buffered point-splat rasterizer with alpha blending, an orthographic
//! camera, and PPM output — enough to write real animation frames to disk
//! from the examples and to give the cost model a faithful per-particle
//! render cost.

pub mod camera;
pub mod framebuffer;
pub mod image;
pub mod splat;

pub use camera::Camera;
pub use framebuffer::Framebuffer;
pub use splat::{
    draw_splats, push_splats, render_objects, render_particles, render_streaks, Splat, SplatConfig,
};
