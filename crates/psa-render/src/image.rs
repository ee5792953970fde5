//! PPM image output.
//!
//! Binary PPM (P6) is trivially written without dependencies and plays well
//! with `ffmpeg`/ImageMagick for turning frame sequences into videos.

use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;

use crate::framebuffer::Framebuffer;

/// Write a framebuffer as binary PPM (P6).
pub fn write_ppm(fb: &Framebuffer, path: &Path) -> io::Result<()> {
    let file = File::create(path)?;
    let mut w = BufWriter::new(file);
    write!(w, "P6\n{} {}\n255\n", fb.width(), fb.height())?;
    w.write_all(&fb.to_rgb8())?;
    w.flush()
}

/// Format a frame filename like `snow_0042.ppm`.
pub fn frame_filename(prefix: &str, frame: u64) -> String {
    format!("{prefix}_{frame:04}.ppm")
}

#[cfg(test)]
mod tests {
    use super::*;
    use psa_math::Vec3;

    #[test]
    fn ppm_roundtrip_header_and_size() {
        let mut fb = Framebuffer::new(3, 2);
        fb.clear(Vec3::new(1.0, 0.0, 0.0));
        let dir = std::env::temp_dir().join("psa_render_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.ppm");
        write_ppm(&fb, &path).unwrap();
        let data = std::fs::read(&path).unwrap();
        assert!(data.starts_with(b"P6\n3 2\n255\n"));
        assert_eq!(data.len(), 11 + 3 * 2 * 3);
        // first pixel red
        assert_eq!(&data[11..14], &[255, 0, 0]);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn filename_padding() {
        assert_eq!(frame_filename("snow", 7), "snow_0007.ppm");
        assert_eq!(frame_filename("f", 12345), "f_12345.ppm");
    }
}
