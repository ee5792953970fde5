//! The frame-protocol message vocabulary (paper Figure 2).
//!
//! One enum covers every arrow in the paper's sequence diagram: particle
//! batches (creation, exchange, balancing donations, shipping to the image
//! generator), end-of-transmission notifications, load information, balance
//! orders, new dimensions, and the domain broadcast.

use std::sync::Arc;

use netsim::{TransportError, WireSize};
use psa_core::invariants::StateHash;
use psa_core::{DomainMap, InvariantViolation, Particle, SystemId, WIRE_BYTES};
use psa_math::Scalar;
use psa_render::Splat;

use crate::balance::{LoadInfo, Order};

/// Render payload bytes per particle the cost model charges for shipping to
/// the image generator ([`Msg::RenderBatch`]).
///
/// The model has calculators quantize to screen-space (two 16-bit
/// coordinates; color and intensity are implied by the system and age
/// bucket) rather than ship the full 70-byte particle — the paper's
/// Fast-Ethernet results are only achievable if frame shipping is far
/// lighter than migration traffic. The threaded executor's calculators
/// project too, but ship a 48-byte [`Splat`] record per drawn splat
/// ([`Msg::RenderSplats`]): exact pixels, not a quantized position.
pub const RENDER_WIRE_BYTES: usize = 4;

/// Wire size of a [`Msg::FrameDigest`]: the count plus the two words of a
/// [`StateHash`], whatever the population.
pub const DIGEST_WIRE_BYTES: u64 = 24;

/// A message of the frame protocol.
#[derive(Clone, Debug, PartialEq)]
pub enum Msg {
    /// A batch of particles changing owner: creation (manager→calculator),
    /// exchange (calculator→calculator), or balancing donation.
    Particles {
        system: SystemId,
        batch: Vec<Particle>,
        /// Virtual multiplier: each real particle stands for `scale`
        /// particles in the cost model; carried so byte accounting matches.
        scale: f64,
    },
    /// End of a transmission sequence (paper §3.2.1 — receivers must be
    /// told or "they will remain blocked inside the creation action").
    EndOfTransmission { system: SystemId },
    /// A calculator's per-frame load report (paper §3.2.4). `migrated`
    /// piggy-backs the calculator's exchange count for run statistics.
    Load { system: SystemId, info: LoadInfo, migrated: usize },
    /// The manager's balancing orders for one calculator (possibly none).
    /// `round_orders` carries the round's *total* decided-transfer count so
    /// every calculator tracks the zero-order streak (the balance-phase
    /// short-circuit hysteresis) in lock-step with the manager; it rides in
    /// the existing fixed header, so the wire size is unchanged.
    Orders { system: SystemId, orders: Vec<Order>, round_orders: u32 },
    /// A donor's newly computed domain boundary (paper §3.2.5).
    NewCut { system: SystemId, boundary: usize, cut: Scalar },
    /// The manager's broadcast of updated domain boundaries: one shared,
    /// already-validated map per round, cloned by reference to every
    /// calculator, which installs exactly what arrives. The wire size still
    /// counts every cut, as a real broadcast would carry them.
    Domains { system: SystemId, map: Arc<DomainMap> },
    /// Quantized render payload for the image generator (count of real
    /// particles; the content travels out-of-band in the virtual executor).
    RenderBatch { system: SystemId, count: usize, scale: f64 },
    /// A threaded calculator's frame digest of one system: how many
    /// particles it holds and their ordered checksum, folded where the
    /// particles live. Sent every frame; the image generator combines the
    /// partials in `(system, calculator)` order.
    FrameDigest { system: SystemId, alive: usize, hash: StateHash },
    /// The splat records a threaded calculator's particles draw, projected,
    /// culled and clipped where the particles live (the image generator
    /// only rasterizes), in the store's order; `culled` counts the splats
    /// that would have drawn nothing, so records + culled is the digest's
    /// count times the splats per particle. Follows the digest, and only
    /// when something rasterizes.
    RenderSplats { system: SystemId, splats: Vec<Splat>, culled: usize },
    /// Frame-complete token: the threaded image generator sends it to every
    /// calculator once it has drawn `frame`, and a calculator waits for the
    /// token of frame `f - 2` before it ships frame `f` — so render batches
    /// never pile up ahead of the rasterizer. Only sent when calculators
    /// ship splat records (a sink rasterizes and the scene has a system),
    /// and only for frames some calculator will wait on.
    FrameDone { frame: u64 },
}

impl Msg {
    /// Short message-kind name for protocol diagnostics.
    pub fn kind(&self) -> &'static str {
        match self {
            Msg::Particles { .. } => "Particles",
            Msg::EndOfTransmission { .. } => "EndOfTransmission",
            Msg::Load { .. } => "Load",
            Msg::Orders { .. } => "Orders",
            Msg::NewCut { .. } => "NewCut",
            Msg::Domains { .. } => "Domains",
            Msg::RenderBatch { .. } => "RenderBatch",
            Msg::FrameDigest { .. } => "FrameDigest",
            Msg::RenderSplats { .. } => "RenderSplats",
            Msg::FrameDone { .. } => "FrameDone",
        }
    }
}

/// A frame-protocol failure, carried to the executor instead of panicking a
/// worker thread mid-protocol.
#[derive(Clone, Debug, PartialEq)]
pub enum ProtocolError {
    /// The transport reported a dead peer.
    Transport(TransportError),
    /// A role received a message kind the Figure-2 schedule forbids at that
    /// point.
    UnexpectedMessage {
        role: &'static str,
        rank: usize,
        frame: u64,
        expected: &'static str,
        got: &'static str,
    },
    /// The manager broadcast (or a donor reported) an invalid domain
    /// configuration.
    Domain { role: &'static str, rank: usize, frame: u64, detail: String },
    /// A `strict-invariants` runtime check failed.
    Invariant(InvariantViolation),
    /// The recorded protocol trace of a frame departed from the Figure-2
    /// order (`strict-invariants` only).
    OrderBroken { role: &'static str, rank: usize, frame: u64, detail: String },
    /// Rasterizer output could not be written, or (at frame 0, before any
    /// thread starts) the render sink's viewport has no pixels to draw.
    Render { frame: u64, detail: String },
    /// Calculator `rank` shipped splat records and a culled count that do
    /// not add up to the `alive` particles of the frame digest it sent just
    /// before, at `steps` splats per particle.
    DigestMismatch {
        rank: usize,
        frame: u64,
        alive: usize,
        steps: usize,
        records: usize,
        culled: usize,
    },
    /// A bounded receive gave up on a silent peer, with protocol context a
    /// raw transport error cannot carry.
    Timeout { role: &'static str, rank: usize, frame: u64, peer: usize },
    /// A worker thread panicked (the panic payload is lost to `join`).
    WorkerPanic { role: &'static str },
    /// The run asks for what this executor cannot honour — a configuration
    /// option, or a cluster with no calculators; rejected before the run
    /// starts instead of being silently ignored or panicking.
    Unsupported { executor: &'static str, option: &'static str },
    /// The run configuration's time step is NaN or infinite
    /// ([`crate::config::RunConfig::check`]); rejected before frame 0.
    NonFiniteDt { dt: Scalar },
    /// A system's emission shape, `initial` shape or velocity model holds a
    /// NaN or infinite number ([`crate::scene::Scene::check`]); rejected
    /// before frame 0.
    NonFiniteEmitter { system: SystemId },
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtocolError::Transport(e) => write!(f, "transport: {e}"),
            ProtocolError::UnexpectedMessage { role, rank, frame, expected, got } => {
                write!(f, "{role} {rank} frame {frame}: expected {expected}, got {got}")
            }
            ProtocolError::Domain { role, rank, frame, detail } => {
                write!(f, "{role} {rank} frame {frame}: invalid domains: {detail}")
            }
            ProtocolError::Invariant(v) => write!(f, "invariant: {v}"),
            ProtocolError::OrderBroken { role, rank, frame, detail } => {
                write!(f, "{role} {rank} frame {frame}: protocol order broken: {detail}")
            }
            ProtocolError::Render { frame, detail } => {
                write!(f, "image generator frame {frame}: {detail}")
            }
            ProtocolError::DigestMismatch { rank, frame, alive, steps, records, culled } => write!(
                f,
                "image generator frame {frame}: calculator {rank} shipped {records} records and \
                 {culled} culled after a digest of {alive} particles at {steps} splats each"
            ),
            ProtocolError::Timeout { role, rank, frame, peer } => {
                write!(f, "{role} {rank} frame {frame}: timed out waiting for rank {peer}")
            }
            ProtocolError::WorkerPanic { role } => write!(f, "{role} thread panicked"),
            ProtocolError::Unsupported { executor, option } => {
                write!(f, "the {executor} executor does not support {option}")
            }
            ProtocolError::NonFiniteDt { dt } => write!(f, "the time step dt = {dt} is not finite"),
            ProtocolError::NonFiniteEmitter { system } => {
                write!(f, "{system} has a non-finite emission shape or velocity model")
            }
        }
    }
}

impl std::error::Error for ProtocolError {}

impl From<TransportError> for ProtocolError {
    fn from(e: TransportError) -> Self {
        ProtocolError::Transport(e)
    }
}

impl From<InvariantViolation> for ProtocolError {
    fn from(v: InvariantViolation) -> Self {
        ProtocolError::Invariant(v)
    }
}

impl WireSize for Msg {
    fn wire_bytes(&self) -> u64 {
        match self {
            Msg::Particles { batch, scale, .. } => {
                (batch.len() as f64 * scale * WIRE_BYTES as f64).round() as u64
            }
            Msg::EndOfTransmission { .. } => 4,
            Msg::Load { .. } => 24,
            Msg::Orders { orders, .. } => 8 + 16 * orders.len() as u64,
            Msg::NewCut { .. } => 16,
            Msg::Domains { map, .. } => 8 + 4 * map.cuts().len() as u64,
            Msg::RenderBatch { count, scale, .. } => {
                (*count as f64 * scale * RENDER_WIRE_BYTES as f64).round() as u64
            }
            Msg::FrameDigest { .. } => DIGEST_WIRE_BYTES,
            Msg::RenderSplats { splats, .. } => {
                (splats.len() * std::mem::size_of::<Splat>()) as u64
            }
            Msg::FrameDone { .. } => 8,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psa_math::{Axis, Interval, Vec3};

    #[test]
    fn particle_batch_bytes_match_paper_unit() {
        let batch = vec![Particle::at(Vec3::ZERO); 10];
        let m = Msg::Particles { system: SystemId(0), batch, scale: 1.0 };
        assert_eq!(m.wire_bytes(), 700); // 10 × 70 B
    }

    #[test]
    fn scale_multiplies_bytes() {
        let batch = vec![Particle::at(Vec3::ZERO); 10];
        let m = Msg::Particles { system: SystemId(0), batch, scale: 10.0 };
        assert_eq!(m.wire_bytes(), 7000);
    }

    #[test]
    fn render_batch_is_light() {
        let m = Msg::RenderBatch { system: SystemId(0), count: 1000, scale: 1.0 };
        assert_eq!(m.wire_bytes(), 4000);
        let splat = Splat {
            x0: 0,
            x1: 0,
            y0: 0,
            y1: 0,
            x: 0.5,
            y: 0.5,
            z: 0.0,
            r2: 1.0,
            color: Vec3::ONE,
            alpha: 1.0,
        };
        let full = Msg::RenderSplats { system: SystemId(0), splats: vec![splat; 1000], culled: 0 };
        assert_eq!(full.wire_bytes(), 48_000);
        assert!(m.wire_bytes() < full.wire_bytes());
    }

    #[test]
    fn control_messages_are_small() {
        assert!(Msg::EndOfTransmission { system: SystemId(1) }.wire_bytes() < 16);
        let digest =
            Msg::FrameDigest { system: SystemId(1), alive: 50_000, hash: StateHash::new() };
        assert_eq!(digest.wire_bytes(), DIGEST_WIRE_BYTES);
    }

    #[test]
    fn a_domain_broadcast_is_charged_for_every_cut_it_shares() {
        // The message carries one shared map, but the wire still counts the
        // header plus 4 bytes for each of the n + 1 cuts of n slices.
        for (n, bytes) in [(8, 8 + 4 * 9), (1024, 4108)] {
            let map = DomainMap::split_even(Interval::new(0.0, 10.0), Axis::X, n);
            let m = Msg::Domains { system: SystemId(1), map: Arc::new(map) };
            assert_eq!(m.wire_bytes(), bytes, "{n} slices");
        }
    }

    #[test]
    fn paper_exchange_volume_reproduction() {
        // §5.1: 16 processes × ~560 particles ≈ 613 KB per frame.
        let per_proc = Msg::Particles {
            system: SystemId(0),
            batch: vec![Particle::at(Vec3::ZERO); 560],
            scale: 1.0,
        };
        let total_kb = 16.0 * per_proc.wire_bytes() as f64 / 1024.0;
        assert!((total_kb - 613.0).abs() < 15.0, "got {total_kb} KB");
    }
}
