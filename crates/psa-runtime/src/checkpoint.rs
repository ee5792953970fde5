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
//! * **No frame-local tallies.** `frame_retries`, `frame_orders`, and
//!   friends are flushed to zero at every frame boundary; restore just
//!   re-zeroes them.
//!
//! The byte codec ([`EngineSnapshot::encode`] / [`EngineSnapshot::decode`])
//! is fixed little-endian with floats by bit pattern, so two snapshots of
//! byte-identical engine states serialize byte-identically — the property
//! the chaos recovery gate and the CI replay check compare via
//! [`EngineSnapshot::fingerprint`].

use psa_core::Particle;
use psa_math::{Interval, Scalar, Vec3};

/// Snapshot cadence, carried on [`crate::RunConfig::checkpoint`].
/// Snapshots exist to be recovered from: when a calculator fail-stops and
/// a snapshot exists, the whole engine rolls back to it and
/// deterministically replays up to the crash frame with the rank alive —
/// the run finishes with a fingerprint byte-identical to an uninterrupted
/// one. With checkpointing off (or no snapshot yet) the crash degrades the
/// run instead.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CheckpointConfig {
    /// Take an engine snapshot every `interval` frames (at the top of
    /// frames `interval`, `2*interval`, …). `0` disables checkpointing.
    pub interval: u64,
}

impl CheckpointConfig {
    /// Checkpoint every `interval` frames and recover crashed ranks.
    pub fn recovering(interval: u64) -> Self {
        CheckpointConfig { interval }
    }
}

/// Frame-boundary state of a message fabric: the shared wire model plus
/// fabric-specific extras. In-flight messages are *not* captured (see the
/// module docs); loading a checkpoint drops any queued traffic.
#[derive(Clone, Debug, PartialEq)]
pub struct FabricCheckpoint {
    /// Per-rank clocks, NIC occupancy, and traffic counters.
    pub wire: netsim::WireCheckpoint,
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

struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    fn new() -> Self {
        Writer { buf: Vec::with_capacity(256) }
    }

    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn f32(&mut self, v: f32) {
        self.u32(v.to_bits());
    }

    fn bool(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }

    fn vec3(&mut self, v: Vec3) {
        self.f32(v.x);
        self.f32(v.y);
        self.f32(v.z);
    }

    fn particle(&mut self, p: &Particle) {
        self.vec3(p.position);
        self.vec3(p.velocity);
        self.vec3(p.orientation);
        self.vec3(p.color);
        self.f32(p.age);
        self.f32(p.size);
        self.f32(p.alpha);
        self.f32(p.mass);
    }
}

struct Reader<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, at: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        let end = self.at.checked_add(n).ok_or(CodecError::LengthOverflow)?;
        let s = self.buf.get(self.at..end).ok_or(CodecError::Truncated)?;
        self.at = end;
        Ok(s)
    }

    fn u64(&mut self) -> Result<u64, CodecError> {
        let s = self.take(8)?;
        let mut b = [0u8; 8];
        b.copy_from_slice(s);
        Ok(u64::from_le_bytes(b))
    }

    fn u32(&mut self) -> Result<u32, CodecError> {
        let s = self.take(4)?;
        let mut b = [0u8; 4];
        b.copy_from_slice(s);
        Ok(u32::from_le_bytes(b))
    }

    fn f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn f32(&mut self) -> Result<f32, CodecError> {
        Ok(f32::from_bits(self.u32()?))
    }

    fn bool(&mut self) -> Result<bool, CodecError> {
        Ok(self.take(1)?.first().copied().unwrap_or(0) != 0)
    }

    /// A length prefix, refused when it cannot possibly fit the remaining
    /// buffer at `min_item_bytes` per element (so a corrupt length can
    /// never size a huge allocation).
    fn len(&mut self, min_item_bytes: usize) -> Result<usize, CodecError> {
        let n = self.u64()?;
        let n = usize::try_from(n).map_err(|_| CodecError::LengthOverflow)?;
        let need = n.checked_mul(min_item_bytes.max(1)).ok_or(CodecError::LengthOverflow)?;
        if need > self.buf.len().saturating_sub(self.at) {
            return Err(CodecError::LengthOverflow);
        }
        Ok(n)
    }

    fn vec3(&mut self) -> Result<Vec3, CodecError> {
        Ok(Vec3::new(self.f32()?, self.f32()?, self.f32()?))
    }

    fn particle(&mut self) -> Result<Particle, CodecError> {
        Ok(Particle {
            position: self.vec3()?,
            velocity: self.vec3()?,
            orientation: self.vec3()?,
            color: self.vec3()?,
            age: self.f32()?,
            size: self.f32()?,
            alpha: self.f32()?,
            mass: self.f32()?,
        })
    }
}

fn put_scalar_vec(w: &mut Writer, v: &[Scalar]) {
    w.u64(v.len() as u64);
    for &s in v {
        w.f32(s);
    }
}

fn get_scalar_vec(r: &mut Reader<'_>) -> Result<Vec<Scalar>, CodecError> {
    let n = r.len(4)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(r.f32()?);
    }
    Ok(out)
}

fn put_u64_vec(w: &mut Writer, v: &[u64]) {
    w.u64(v.len() as u64);
    for &x in v {
        w.u64(x);
    }
}

fn get_u64_vec(r: &mut Reader<'_>) -> Result<Vec<u64>, CodecError> {
    let n = r.len(8)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(r.u64()?);
    }
    Ok(out)
}

fn put_f64_vec(w: &mut Writer, v: &[f64]) {
    w.u64(v.len() as u64);
    for &x in v {
        w.f64(x);
    }
}

fn get_f64_vec(r: &mut Reader<'_>) -> Result<Vec<f64>, CodecError> {
    let n = r.len(8)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(r.f64()?);
    }
    Ok(out)
}

impl EngineSnapshot {
    /// Serialize to the fixed little-endian byte format.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.buf.extend_from_slice(&MAGIC);
        w.u64(self.next_frame);
        w.u64(self.round);
        w.f64(self.prev_makespan);
        w.u64(self.lost);
        w.u64(self.idle_rounds.len() as u64);
        for &x in &self.idle_rounds {
            w.u32(x);
        }
        w.u64(self.crashed.len() as u64);
        for &b in &self.crashed {
            w.bool(b);
        }
        w.u64(self.dead.len() as u64);
        for &b in &self.dead {
            w.bool(b);
        }
        w.u64(self.missed.len() as u64);
        for &x in &self.missed {
            w.u32(x);
        }
        w.u64(self.dead_events.len() as u64);
        for &(rank, frame) in &self.dead_events {
            w.u64(rank as u64);
            w.u64(frame);
        }
        w.u64(self.mgr_cuts.len() as u64);
        for cuts in &self.mgr_cuts {
            put_scalar_vec(&mut w, cuts);
        }
        w.u64(self.calcs.len() as u64);
        for c in &self.calcs {
            w.u64(c.stores.len() as u64);
            for s in &c.stores {
                w.f32(s.slice.lo);
                w.f32(s.slice.hi);
                w.u64(s.buckets as u64);
                w.u64(s.particles.len() as u64);
                for p in &s.particles {
                    w.particle(p);
                }
            }
            w.u64(c.cuts.len() as u64);
            for cuts in &c.cuts {
                put_scalar_vec(&mut w, cuts);
            }
            put_f64_vec(&mut w, &c.compute_time);
            w.u64(c.pre_count.len() as u64);
            for &x in &c.pre_count {
                w.u64(x as u64);
            }
        }
        put_f64_vec(&mut w, &self.fabric.wire.clocks);
        put_f64_vec(&mut w, &self.fabric.wire.link_free);
        w.f64(self.fabric.wire.shared_free);
        w.u64(self.fabric.wire.stats.messages);
        w.u64(self.fabric.wire.stats.payload_bytes);
        w.u64(self.fabric.wire.rank_stats.len() as u64);
        for rs in &self.fabric.wire.rank_stats {
            w.u64(rs.messages);
            w.u64(rs.payload_bytes);
        }
        put_u64_vec(&mut w, &self.fabric.injector_streams);
        put_u64_vec(&mut w, &self.fabric.extra);
        w.buf
    }

    /// Decode a buffer produced by [`EngineSnapshot::encode`]. Rejects
    /// malformed input with a typed error; never panics and never sizes an
    /// allocation from an unvalidated length.
    pub fn decode(bytes: &[u8]) -> Result<EngineSnapshot, CodecError> {
        let mut r = Reader::new(bytes);
        if r.take(MAGIC.len())? != MAGIC {
            return Err(CodecError::BadMagic);
        }
        let next_frame = r.u64()?;
        let round = r.u64()?;
        let prev_makespan = r.f64()?;
        let lost = r.u64()?;
        let n = r.len(4)?;
        let mut idle_rounds = Vec::with_capacity(n);
        for _ in 0..n {
            idle_rounds.push(r.u32()?);
        }
        let n = r.len(1)?;
        let mut crashed = Vec::with_capacity(n);
        for _ in 0..n {
            crashed.push(r.bool()?);
        }
        let n = r.len(1)?;
        let mut dead = Vec::with_capacity(n);
        for _ in 0..n {
            dead.push(r.bool()?);
        }
        let n = r.len(4)?;
        let mut missed = Vec::with_capacity(n);
        for _ in 0..n {
            missed.push(r.u32()?);
        }
        let n = r.len(16)?;
        let mut dead_events = Vec::with_capacity(n);
        for _ in 0..n {
            let rank = usize::try_from(r.u64()?).map_err(|_| CodecError::LengthOverflow)?;
            dead_events.push((rank, r.u64()?));
        }
        let n = r.len(8)?;
        let mut mgr_cuts = Vec::with_capacity(n);
        for _ in 0..n {
            mgr_cuts.push(get_scalar_vec(&mut r)?);
        }
        let n = r.len(8)?;
        let mut calcs = Vec::with_capacity(n);
        for _ in 0..n {
            let ns = r.len(8)?;
            let mut stores = Vec::with_capacity(ns);
            for _ in 0..ns {
                let lo = r.f32()?;
                let hi = r.f32()?;
                let buckets = usize::try_from(r.u64()?).map_err(|_| CodecError::LengthOverflow)?;
                let np = r.len(64)?;
                let mut particles = Vec::with_capacity(np);
                for _ in 0..np {
                    particles.push(r.particle()?);
                }
                stores.push(StoreSnapshot { slice: Interval::new(lo, hi), buckets, particles });
            }
            let nc = r.len(8)?;
            let mut cuts = Vec::with_capacity(nc);
            for _ in 0..nc {
                cuts.push(get_scalar_vec(&mut r)?);
            }
            let compute_time = get_f64_vec(&mut r)?;
            let np = r.len(8)?;
            let mut pre_count = Vec::with_capacity(np);
            for _ in 0..np {
                pre_count.push(usize::try_from(r.u64()?).map_err(|_| CodecError::LengthOverflow)?);
            }
            calcs.push(CalcSnapshot { stores, cuts, compute_time, pre_count });
        }
        let clocks = get_f64_vec(&mut r)?;
        let link_free = get_f64_vec(&mut r)?;
        let shared_free = r.f64()?;
        let stats = netsim::TrafficStats { messages: r.u64()?, payload_bytes: r.u64()? };
        let n = r.len(16)?;
        let mut rank_stats = Vec::with_capacity(n);
        for _ in 0..n {
            rank_stats.push(netsim::TrafficStats { messages: r.u64()?, payload_bytes: r.u64()? });
        }
        let injector_streams = get_u64_vec(&mut r)?;
        let extra = get_u64_vec(&mut r)?;
        if r.at != bytes.len() {
            return Err(CodecError::TrailingBytes);
        }
        Ok(EngineSnapshot {
            next_frame,
            round,
            prev_makespan,
            lost,
            idle_rounds,
            crashed,
            dead,
            missed,
            dead_events,
            mgr_cuts,
            calcs,
            fabric: FabricCheckpoint {
                wire: netsim::WireCheckpoint { clocks, link_free, shared_free, stats, rank_stats },
                injector_streams,
                extra,
            },
        })
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
        // The idle_rounds length field sits right after the 36-byte header
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
        assert_eq!(CheckpointConfig::default().interval, 0);
        assert_eq!(CheckpointConfig::default(), CheckpointConfig::recovering(0));
        assert_eq!(CheckpointConfig::recovering(5).interval, 5);
    }
}
