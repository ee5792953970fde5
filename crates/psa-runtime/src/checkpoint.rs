//! Deterministic checkpoint/restore for the protocol engine.
//!
//! A checkpoint freezes everything the [`crate::Engine`] mutates between
//! frame boundaries — per-system [`SubDomainStore`](psa_core::SubDomainStore) contents in
//! bucket-major order, every domain map (the manager's authoritative copy
//! *and* each calculator's replica, which diverge under static balancing
//! with dead ranks), the degraded-mode sets, the frame cursor, and the
//! fabric's wire clocks plus fault-injector stream states. Nothing else is
//! needed:
//!
//! * **No live simulation RNG.** Every stochastic draw re-derives from
//!   `stream(seed, tag, frame, sys, rank)`, so the frame cursor alone pins
//!   creation and action randomness. The only mid-run RNG state is the
//!   fault injector's per-link draw streams, captured as raw SplitMix64
//!   states (`Rng64::new`/`state` are exact inverses).
//! * **No in-flight messages.** Snapshots are frame-boundary artifacts; the
//!   lock-step protocol drains every healthy link by the frame barrier. The
//!   only queues that may be non-empty point at a crashed-but-undeclared
//!   rank, and those messages are dropped on purpose: a declaration would
//!   purge them, a recovery rolls back past their send.
//! * **No frame-local tallies.** The one the engine keeps,
//!   `frame_timeouts`, is moved into the frame report at every frame
//!   boundary; restore just re-zeroes it. Other events go to the recorder
//!   as they happen.
//!
//! The byte codec ([`EngineSnapshot::encode`] / [`EngineSnapshot::decode`])
//! is fixed little-endian with floats by bit pattern, so two snapshots of
//! byte-identical engine states serialize byte-identically — the property
//! the chaos recovery gate and the CI replay check compare via
//! [`EngineSnapshot::fingerprint`]. The format is written once: each record
//! lists its fields in one place, and that list drives both directions.
//! Decoding is total (a typed [`CodecError`] or the snapshot), and so is
//! [`crate::Engine::restore`]: a snapshot whose shape does not fit the
//! engine is refused with a typed error before anything is overwritten.
//!
//! Snapshots exist to be recovered from. With
//! [`crate::RunConfig::checkpoint_interval`] non-zero, the engine takes one
//! every that many frames; when a calculator fail-stops and a snapshot
//! exists, the whole engine rolls back to it and deterministically replays
//! up to the crash frame with the rank alive — the run finishes with a
//! fingerprint byte-identical to an uninterrupted one. With checkpointing
//! off (or no snapshot yet) the crash degrades the run instead.

use netsim::{TrafficStats, WireCheckpoint};
use psa_core::Particle;
use psa_math::{Interval, Scalar, Vec3};

/// Frame-boundary state of a message fabric: the shared wire model plus
/// fabric-specific extras. In-flight messages are *not* captured (see the
/// module docs); loading a checkpoint drops any queued traffic.
#[derive(Clone, Debug, PartialEq)]
pub struct FabricCheckpoint {
    /// Per-rank clocks, NIC occupancy, and traffic counters.
    pub wire: WireCheckpoint,
    /// The fault injector's draw-stream cursors, as the injector encodes
    /// them (`netsim::PlanInjector`: one `(from, to, raw SplitMix64 state)`
    /// triple per link that has drawn — empty under a quiet plan).
    pub injector_streams: Vec<u64>,
    /// Opaque fabric-specific counters (`psa-desim`'s fabric stores its
    /// cumulative `SimStats` here).
    pub extra: Vec<u64>,
}

/// One sub-domain store, particles in bucket-major iteration order.
///
/// Bucket assignment is a pure clamped function of position and
/// within-bucket order is append order, so re-inserting `particles` in
/// sequence into a fresh store over the same slice reproduces the original
/// layout byte-for-byte.
#[derive(Clone, Debug, PartialEq)]
pub struct StoreSnapshot {
    /// The store's slice of the decomposition axis.
    pub slice: Interval,
    /// Bucket count the store was built with.
    pub buckets: usize,
    /// Every particle, bucket-major.
    pub particles: Vec<Particle>,
}

/// One calculator's snapshot: stores, domain replicas, load bookkeeping.
#[derive(Clone, Debug, PartialEq)]
pub struct CalcSnapshot {
    /// Per-system stores.
    pub stores: Vec<StoreSnapshot>,
    /// Per-system local domain-map cuts (may lag the manager's under
    /// static balancing with dead ranks — stale replicas are part of the
    /// degraded-mode semantics and must survive a round-trip).
    pub cuts: Vec<Vec<Scalar>>,
    /// Per-system compute time of the last calculus phase.
    pub compute_time: Vec<f64>,
    /// Population the compute time was measured on.
    pub pre_count: Vec<usize>,
}

/// A complete frame-boundary engine snapshot.
///
/// Construction-time configuration (scene, config, cost model, placement
/// speeds) is *not* captured: a snapshot restores onto an engine built from
/// the same inputs, which is how the session layer revives an evicted
/// engine — build fresh, then [`crate::Engine::restore`].
#[derive(Clone, Debug, PartialEq)]
pub struct EngineSnapshot {
    /// Next frame the engine will step (the frame cursor all per-frame RNG
    /// re-derives from).
    pub next_frame: u64,
    /// Evaluated balance rounds so far.
    pub round: u64,
    /// Makespan at the end of the previous frame.
    pub prev_makespan: f64,
    /// Real (unscaled) particles lost to crashed/dead ranks.
    pub lost: u64,
    /// Per-system consecutive zero-order balance rounds.
    pub idle_rounds: Vec<u32>,
    /// Fail-stopped ranks.
    pub crashed: Vec<bool>,
    /// Declared-dead ranks.
    pub dead: Vec<bool>,
    /// Consecutive missed load reports per calculator.
    pub missed: Vec<u32>,
    /// `(rank, frame)` death declarations, in order.
    pub dead_events: Vec<(usize, u64)>,
    /// Per-system manager domain cuts.
    pub mgr_cuts: Vec<Vec<Scalar>>,
    /// Per-calculator state.
    pub calcs: Vec<CalcSnapshot>,
    /// The fabric's frame-boundary state.
    pub fabric: FabricCheckpoint,
}

/// One recovery the engine performed: a crashed rank rolled back to the
/// last snapshot and replayed forward. Reported on
/// [`crate::RunReport::recoveries`]; deliberately **outside** the report
/// fingerprint (recovery is run *machinery*, and a recovered run must
/// fingerprint identically to an uninterrupted one).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RecoveryEvent {
    /// The rank that crashed and was recovered.
    pub rank: usize,
    /// Frame at which the crash tripped.
    pub frame: u64,
    /// Frame the restoring snapshot was taken at.
    pub snapshot_frame: u64,
    /// Frames deterministically re-executed to catch back up.
    pub frames_replayed: u64,
    /// Particles the snapshot restored onto the recovered rank.
    pub particles_restored: u64,
    /// Virtual seconds of work redone during the replay — the model's
    /// recovery cost, compared against restart-from-zero by BENCH_8.
    pub replay_virtual_secs: f64,
}

/// Typed decode failure of the snapshot byte codec.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CodecError {
    /// The buffer does not start with the codec magic/version.
    BadMagic,
    /// The buffer ended before the structure was complete.
    Truncated,
    /// A length field exceeds the remaining buffer (corrupt or hostile
    /// input; refused before any allocation is sized from it).
    LengthOverflow,
    /// Trailing bytes after a structurally complete snapshot.
    TrailingBytes,
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::BadMagic => write!(f, "not a snapshot: bad magic/version"),
            CodecError::Truncated => write!(f, "snapshot truncated"),
            CodecError::LengthOverflow => write!(f, "snapshot length field overflows buffer"),
            CodecError::TrailingBytes => write!(f, "trailing bytes after snapshot"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Codec magic: `PSACKPT` + format version byte.
const MAGIC: [u8; 8] = *b"PSACKPT\x01";

/// The bytes still to decode.
struct Reader<'a>(&'a [u8]);

impl Reader<'_> {
    /// Consume the next `N` bytes.
    #[inline]
    fn array<const N: usize>(&mut self) -> Result<[u8; N], CodecError> {
        let (head, rest) = self.0.split_first_chunk::<N>().ok_or(CodecError::Truncated)?;
        self.0 = rest;
        Ok(*head)
    }
}

/// One type's place in the byte format: `get` reads back exactly what
/// `put` wrote, and a record lists its fields once (in `record!`) for
/// both directions. The per-field methods are `#[inline]`: left to the
/// codegen units they stay calls, and decode ran ~25 % slower.
trait Codec: Sized {
    /// The fewest bytes one encoded value occupies. A length prefix that
    /// cannot fit the bytes left at this size per item is refused before
    /// anything is allocated.
    const MIN_BYTES: usize;
    fn put(&self, out: &mut Vec<u8>);
    fn get(r: &mut Reader<'_>) -> Result<Self, CodecError>;
}

/// Fixed-width numbers: little-endian, floats by bit pattern.
macro_rules! little_endian {
    ($($t:ty),*) => {$(
        impl Codec for $t {
            const MIN_BYTES: usize = std::mem::size_of::<$t>();
            #[inline]
            fn put(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            #[inline]
            fn get(r: &mut Reader<'_>) -> Result<Self, CodecError> {
                Ok(<$t>::from_le_bytes(r.array()?))
            }
        }
    )*};
}

little_endian!(u64, u32, f64, f32);

impl Codec for bool {
    const MIN_BYTES: usize = 1;
    fn put(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let [b] = r.array()?;
        Ok(b != 0)
    }
}

/// As a `u64`; one this platform cannot address is a `LengthOverflow`.
impl Codec for usize {
    const MIN_BYTES: usize = 8;
    fn put(&self, out: &mut Vec<u8>) {
        (*self as u64).put(out);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        usize::try_from(u64::get(r)?).map_err(|_| CodecError::LengthOverflow)
    }
}

/// A `u64` length, then the items.
impl<T: Codec> Codec for Vec<T> {
    const MIN_BYTES: usize = 8;
    fn put(&self, out: &mut Vec<u8>) {
        self.len().put(out);
        out.reserve(self.len() * T::MIN_BYTES);
        for item in self {
            item.put(out);
        }
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let n = usize::get(r)?;
        let need = n.checked_mul(T::MIN_BYTES.max(1)).ok_or(CodecError::LengthOverflow)?;
        if need > r.0.len() {
            return Err(CodecError::LengthOverflow);
        }
        let mut items = Vec::with_capacity(n);
        for _ in 0..n {
            items.push(T::get(r)?);
        }
        Ok(items)
    }
}

impl<A: Codec, B: Codec> Codec for (A, B) {
    const MIN_BYTES: usize = A::MIN_BYTES + B::MIN_BYTES;
    fn put(&self, out: &mut Vec<u8>) {
        self.0.put(out);
        self.1.put(out);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok((A::get(r)?, B::get(r)?))
    }
}

/// A record is its fields in the listed order. The decoder builds the
/// struct literal, so a field missing from the list does not compile.
macro_rules! record {
    ($($name:ident { $($field:ident: $t:ty),* $(,)? })*) => {$(
        impl Codec for $name {
            const MIN_BYTES: usize = 0 $(+ <$t as Codec>::MIN_BYTES)*;
            #[inline]
            fn put(&self, out: &mut Vec<u8>) {
                $(self.$field.put(out);)*
            }
            #[inline]
            fn get(r: &mut Reader<'_>) -> Result<Self, CodecError> {
                Ok($name { $($field: <$t>::get(r)?),* })
            }
        }
    )*};
}

// The format, in declaration order. An `Interval` decodes as written —
// inverted or NaN bounds included; `Engine::restore` refuses those.
record! {
    Vec3 { x: Scalar, y: Scalar, z: Scalar }
    Interval { lo: Scalar, hi: Scalar }
    Particle {
        position: Vec3, velocity: Vec3, orientation: Vec3, color: Vec3,
        age: Scalar, size: Scalar, alpha: Scalar, mass: Scalar,
    }
    TrafficStats { messages: u64, payload_bytes: u64 }
    WireCheckpoint {
        clocks: Vec<f64>, link_free: Vec<f64>, shared_free: f64,
        stats: TrafficStats, rank_stats: Vec<TrafficStats>,
    }
    FabricCheckpoint { wire: WireCheckpoint, injector_streams: Vec<u64>, extra: Vec<u64> }
    StoreSnapshot { slice: Interval, buckets: usize, particles: Vec<Particle> }
    CalcSnapshot {
        stores: Vec<StoreSnapshot>, cuts: Vec<Vec<Scalar>>,
        compute_time: Vec<f64>, pre_count: Vec<usize>,
    }
    EngineSnapshot {
        next_frame: u64, round: u64, prev_makespan: f64, lost: u64,
        idle_rounds: Vec<u32>, crashed: Vec<bool>, dead: Vec<bool>, missed: Vec<u32>,
        dead_events: Vec<(usize, u64)>, mgr_cuts: Vec<Vec<Scalar>>,
        calcs: Vec<CalcSnapshot>, fabric: FabricCheckpoint,
    }
}

impl EngineSnapshot {
    /// Serialize to the fixed little-endian byte format.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = MAGIC.to_vec();
        self.put(&mut out);
        out
    }

    /// Decode a buffer produced by [`EngineSnapshot::encode`]. Rejects
    /// malformed input with a typed error; never panics and never sizes an
    /// allocation from an unvalidated length.
    pub fn decode(bytes: &[u8]) -> Result<EngineSnapshot, CodecError> {
        let mut r = Reader(bytes);
        if r.array()? != MAGIC {
            return Err(CodecError::BadMagic);
        }
        let snap = EngineSnapshot::get(&mut r)?;
        if !r.0.is_empty() {
            return Err(CodecError::TrailingBytes);
        }
        Ok(snap)
    }

    /// Order-sensitive FNV-1a over the encoded bytes: equal iff the
    /// serialized snapshots are byte-identical. The chaos recovery gate
    /// compares these to pin "byte-identical replay".
    pub fn fingerprint(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = OFFSET;
        for b in self.encode() {
            h ^= u64::from(b);
            h = h.wrapping_mul(PRIME);
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psa_math::Vec3;

    fn sample() -> EngineSnapshot {
        let p = |x: f32| Particle {
            position: Vec3::new(x, 0.5, -1.0),
            velocity: Vec3::new(0.0, -9.8, 0.0),
            orientation: Vec3::new(0.0, 1.0, 0.0),
            color: Vec3::new(1.0, 0.25, 0.0),
            age: 0.5,
            size: 0.1,
            alpha: 0.9,
            mass: 1.0,
        };
        EngineSnapshot {
            next_frame: 4,
            round: 7,
            prev_makespan: 1.25,
            lost: 3,
            idle_rounds: vec![0, 2],
            crashed: vec![false, true, false],
            dead: vec![false, false, false],
            missed: vec![0, 1, 0],
            dead_events: vec![(1, 3)],
            mgr_cuts: vec![vec![0.0, 2.5, 5.0, 10.0], vec![0.0, 3.0, 6.0, 10.0]],
            calcs: vec![CalcSnapshot {
                stores: vec![StoreSnapshot {
                    slice: Interval::new(0.0, 2.5),
                    buckets: 4,
                    particles: vec![p(0.25), p(1.75)],
                }],
                cuts: vec![vec![0.0, 2.5, 5.0, 10.0]],
                compute_time: vec![0.125],
                pre_count: vec![2],
            }],
            fabric: FabricCheckpoint {
                wire: netsim::WireCheckpoint {
                    clocks: vec![1.0, 2.0, -0.0],
                    link_free: vec![0.5; 4],
                    shared_free: 0.75,
                    stats: netsim::TrafficStats { messages: 10, payload_bytes: 640 },
                    rank_stats: vec![netsim::TrafficStats::default(); 3],
                },
                injector_streams: vec![0xDEAD, 0xBEEF],
                extra: vec![42],
            },
        }
    }

    #[test]
    fn codec_round_trips_exactly() {
        let snap = sample();
        let bytes = snap.encode();
        let back = EngineSnapshot::decode(&bytes).expect("well-formed");
        assert_eq!(back, snap);
        // Byte-stability: re-encoding the decoded snapshot is identical.
        assert_eq!(back.encode(), bytes);
        assert_eq!(back.fingerprint(), snap.fingerprint());
    }

    /// The bytes are the format: this is what the hand-written encoder
    /// this codec replaced printed for `sample()`, so a change to any
    /// record's field list has to move this literal on purpose.
    #[test]
    fn format_is_pinned() {
        assert_eq!(sample().encode().len(), 602);
        assert_eq!(sample().fingerprint(), 0x6f27_1408_55c8_a2ac);
    }

    #[test]
    fn negative_zero_clock_survives_by_bit_pattern() {
        let snap = sample();
        let back = EngineSnapshot::decode(&snap.encode()).expect("well-formed");
        let last = back.fabric.wire.clocks.last().copied().expect("three clocks");
        assert!(last == 0.0 && last.is_sign_negative(), "-0.0 must round-trip as -0.0");
    }

    #[test]
    fn bad_magic_is_refused() {
        let mut bytes = sample().encode();
        bytes[0] ^= 0xFF;
        assert_eq!(EngineSnapshot::decode(&bytes), Err(CodecError::BadMagic));
        assert_eq!(EngineSnapshot::decode(b"short"), Err(CodecError::Truncated));
    }

    #[test]
    fn truncation_at_every_byte_is_a_typed_error_not_a_panic() {
        let bytes = sample().encode();
        for cut in 0..bytes.len() {
            let r = EngineSnapshot::decode(&bytes[..cut]);
            assert!(r.is_err(), "decode of {cut}-byte prefix must fail");
        }
    }

    #[test]
    fn trailing_bytes_are_refused() {
        let mut bytes = sample().encode();
        bytes.push(0);
        assert_eq!(EngineSnapshot::decode(&bytes), Err(CodecError::TrailingBytes));
    }

    #[test]
    fn corrupt_length_cannot_size_an_allocation() {
        let mut bytes = sample().encode();
        // The idle_rounds length field sits right after the 40-byte header
        // (magic 8 + next_frame 8 + round 8 + prev_makespan 8 + lost 8 = 40).
        bytes[40..48].copy_from_slice(&u64::MAX.to_le_bytes());
        assert_eq!(EngineSnapshot::decode(&bytes), Err(CodecError::LengthOverflow));
    }

    #[test]
    fn fingerprint_moves_with_any_field() {
        let base = sample();
        let mut tweaked = sample();
        tweaked.next_frame += 1;
        assert_ne!(base.fingerprint(), tweaked.fingerprint());
        let mut tweaked = sample();
        tweaked.fabric.injector_streams[0] ^= 1;
        assert_ne!(base.fingerprint(), tweaked.fingerprint());
        let mut tweaked = sample();
        tweaked.calcs[0].stores[0].particles[1].position.x += 1.0e-6;
        assert_ne!(base.fingerprint(), tweaked.fingerprint());
    }

    #[test]
    fn default_checkpoint_config_is_off() {
        assert_eq!(crate::RunConfig::default().checkpoint_interval, 0);
    }
}
