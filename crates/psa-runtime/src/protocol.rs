//! The shared Figure-2 protocol implementation.
//!
//! Every executor — sequential and threaded in this crate, and the
//! event-driven virtual-time simulator in `psa-desim` — drives the *same*
//! frame protocol (creation → addition → calculus → collision → exchange →
//! loads → balance → ship → render). This module is the single home for that
//! logic; the executors are thin shells that choose a fabric and a clock:
//!
//! * [`Engine`] is the protocol state machine, generic over a [`Fabric`].
//!   `psa-desim`'s `EventSim` instantiates it over its event-heap fabric,
//!   which charges costs through the `netsim::WireState` arithmetic;
//!   `psa-sessions` steps many engines over the same fabric type.
//! * `calculator_main` / `manager_main` / `image_generator_main` are
//!   the SPMD role bodies the threaded executor spawns on real threads.
//! * `stream` and the RNG tags are the one definition of the seed → RNG
//!   derivation every executor shares (a copy that drifted would silently
//!   fork the particle trajectories).
//!
//! The exchange phase supports two fan-outs ([`ExchangeMode`]): the paper's
//! dense every-pair pattern (Figure 2 verbatim), and
//! a sparse pattern that only ships non-empty batches and drains exactly
//! the queued senders — the difference between O(n²) and O(migrants)
//! messages per frame, which is what lets the event-driven executor sweep
//! 1,024 ranks.

use std::sync::Arc;
use std::time::Duration;

use cluster_sim::{CostModel, Placement};
use netsim::{FailedSend, FaultPolicy, ThreadEndpoint, TrafficStats, TransportError};
use psa_core::invariants::{self, StateHash};
use psa_core::kernel;
use psa_core::{DomainMap, Particle, SubDomainStore, SystemId, WIRE_BYTES};
use psa_math::stats::imbalance;
use psa_math::{Axis, Interval, Rng64, Scalar};
use psa_render::image::{frame_filename, write_ppm};
use psa_render::{render_objects, render_particles, render_streaks, Framebuffer};
use psa_trace::{ClockKind, Counter, FaultKind, Phase, Recorder};

use crate::balance::{self, LoadInfo, Transfer};
use crate::balancers;
use crate::checkpoint::{
    CalcSnapshot, EngineSnapshot, FabricCheckpoint, RecoveryEvent, StoreSnapshot,
};
use crate::config::{ExchangeMode, LoadMetric, RunConfig, SpaceMode, SystemSchedule};
use crate::msg::{Msg, ProtocolError};
use crate::report::{scale_count, FrameReport, RunReport};
use crate::scene::Scene;
use crate::threaded::RenderSink;
use crate::trace::{figure2_passes, ProtocolEvent, Trace};

/// RNG stream tags (see [`stream`]).
pub(crate) const TAG_CREATE: u64 = 0xC0;
pub(crate) const TAG_ACTIONS: u64 = 0xAC;

/// The decomposition axis (paper: one axis of the plane or space).
pub(crate) const AXIS: Axis = Axis::X;

/// Derive the deterministic stream for (tag, frame, system, rank).
pub(crate) fn stream(seed: u64, tag: u64, frame: u64, sys: usize, rank: usize) -> Rng64 {
    Rng64::new(seed).split(tag).split(frame).split(sys as u64).split(rank as u64)
}

/// The rank → node map the simulated fabrics are built from: one entry per
/// calculator in placement order, then the front-end node twice (manager
/// and image generator share it, paper §4). Returns `(node_of, node_count)`.
pub fn node_layout(placement: &Placement) -> (Vec<usize>, usize) {
    let mut node_of: Vec<usize> = placement.ranks.iter().map(|r| r.node).collect();
    node_of.push(placement.frontend_node);
    node_of.push(placement.frontend_node);
    (node_of, placement.node_count)
}

/// What the [`Engine`] needs from a simulated message fabric: directed
/// sends and receives, per-rank virtual clocks, and the fault-injection
/// queries the degraded-mode protocol consults. Implemented by
/// `psa-desim`'s event-heap fabric over the `netsim::WireState` timing
/// arithmetic; the trait is the seam that keeps the protocol crate free of
/// the simulator crate.
pub trait Fabric {
    /// Queue a message; the fabric charges occupancy and latency. A
    /// transient injected failure returns the message for retry.
    fn send(&mut self, from: usize, to: usize, msg: Msg) -> Result<(), FailedSend<Msg>>;
    /// Directed receive from a peer that must have sent (protocol
    /// lock-step); an empty queue is a protocol bug, not a wait.
    fn recv(&mut self, to: usize, from: usize) -> Result<Msg, TransportError>;
    /// Directed receive with a bounded virtual wait: if nothing is queued
    /// the wait is charged and `Timeout` returned.
    fn recv_deadline(&mut self, to: usize, from: usize, wait: f64) -> Result<Msg, TransportError>;
    /// Drain the (to, from) queue without touching clocks (crash cleanup).
    fn take_queued(&mut self, to: usize, from: usize) -> Vec<Msg>;
    /// Ranks with traffic queued toward `to`, ascending (sparse exchange).
    fn queued_senders(&mut self, to: usize) -> Vec<usize>;
    fn now(&self, rank: usize) -> f64;
    fn advance(&mut self, rank: usize, seconds: f64);
    fn barrier(&mut self, ranks: &[usize]);
    fn makespan(&self) -> f64;
    fn ranks(&self) -> usize;
    fn stats(&self) -> TrafficStats;
    /// Injected compute slowdown factor for `rank` (1.0 when healthy).
    fn compute_factor(&self, rank: usize) -> f64;
    /// Injected one-shot stall for `(rank, frame)`, in virtual seconds.
    fn stall_seconds(&self, rank: usize, frame: u64) -> f64;
    /// Frame at which `rank` fail-stops, if the plan crashes it.
    fn crash_frame(&self, rank: usize) -> Option<u64>;
    /// Capture the fabric's frame-boundary state: the shared wire model
    /// (clocks, occupancy, traffic counters) plus the injector's draw-stream
    /// cursors and any fabric-specific extras. In-flight messages are never
    /// captured — see [`crate::checkpoint::FabricCheckpoint`].
    fn save_fabric(&self) -> FabricCheckpoint;
    /// Rewind the fabric to a previously captured checkpoint, dropping any
    /// queued messages (replay from a frame boundary regenerates traffic
    /// deterministically).
    fn load_fabric(&mut self, ck: &FabricCheckpoint);
}

/// Receive a *required* message (the sender is known to be alive): a
/// wrong kind is an `UnexpectedMessage`, silence is a `Timeout`.
macro_rules! expect_virt {
    ($self:ident, $to:expr, $from:expr, $frame:expr, $pat:pat => $out:expr, $expected:expr) => {
        match $self.recv_from($to, $from)? {
            Some($pat) => $out,
            Some(other) => {
                return Err(ProtocolError::UnexpectedMessage {
                    role: "virtual",
                    rank: $to,
                    frame: $frame,
                    expected: $expected,
                    got: other.kind(),
                })
            }
            None => {
                return Err(ProtocolError::Timeout {
                    role: "virtual",
                    rank: $to,
                    frame: $frame,
                    peer: $from,
                })
            }
        }
    };
}

/// Per-calculator state.
struct CalcState {
    /// One sub-domain store per system.
    stores: Vec<SubDomainStore>,
    /// Local replica of every system's domain map (all processes know all
    /// domains, paper §3.1.4). `Arc`-shared: after a broadcast every
    /// calculator holds the same map, and at 1,024 ranks × 100 systems the
    /// per-rank copies would dominate memory.
    domains: Vec<Arc<DomainMap>>,
    /// This frame's per-system compute time (pre-exchange population).
    compute_time: Vec<f64>,
    /// Population the compute time was measured on.
    pre_count: Vec<usize>,
}

/// The running frame machinery: every rank's state plus the fabric.
///
/// Generic over the [`Fabric`] (implemented in `psa-desim`), so the
/// protocol logic never names the simulator that schedules it.
pub struct Engine<F: Fabric> {
    scene: Scene,
    cfg: RunConfig,
    cost: CostModel,
    net: F,
    policy: FaultPolicy,
    calcs: Vec<CalcState>,
    mgr_domains: Vec<DomainMap>,
    speeds: Vec<f64>,
    fe_speed: f64,
    scale: f64,
    n: usize,
    mgr: usize,
    ig: usize,
    /// Evaluated (non-short-circuited) balance rounds so far; drives the
    /// paper's start-pair alternation and the hierarchical level schedule.
    round: u64,
    /// Per-system consecutive zero-order rounds (balance short-circuit).
    idle_rounds: Vec<u32>,
    /// Balance rounds short-circuited in the current frame.
    frame_skips: u64,
    /// Exchange fan-out resolved against the rank count
    /// ([`ExchangeMode::Auto`] picks dense below the threshold, sparse at
    /// or above it).
    sparse: bool,
    /// Rank `c` has fail-stopped (it no longer computes, sends or
    /// receives); peers may not have noticed yet.
    crashed: Vec<bool>,
    /// The manager has declared rank `c` dead: its slice is collapsed and
    /// nobody addresses it any more.
    dead: Vec<bool>,
    /// Consecutive missed load reports per calculator.
    missed: Vec<u32>,
    /// Rank `c` has been recovered from a snapshot (or its crash predates
    /// the snapshot and is unrecoverable): its planned crash — a permanent
    /// plan entry — must not trip again after the rollback. Recovery
    /// metadata, deliberately *not* part of snapshots.
    recovered: Vec<bool>,
    /// The most recent frame-boundary snapshot, refreshed every
    /// `cfg.checkpoint.interval` frames when checkpointing is on.
    last_snapshot: Option<EngineSnapshot>,
    /// Recoveries performed so far (reported, fingerprint-exempt).
    recoveries: Vec<RecoveryEvent>,
    /// `(rank, frame)` death declarations, in order.
    dead_events: Vec<(usize, u64)>,
    /// Real (unscaled) particles lost to crashed/dead ranks.
    lost: u64,
    /// Deadline-expired receives in the current frame.
    frame_timeouts: u64,
    /// Next frame [`Engine::step_frame`] will run (== `cfg.frames` once the
    /// animation is complete).
    next_frame: u64,
    /// Makespan at the end of the previous stepped frame (per-frame time
    /// deltas are computed against this).
    prev_makespan: f64,
    trace: Trace,
    /// Per-phase observability recorder (quiet: reads clocks, never moves
    /// them). Disabled unless the executor asked for phases.
    rec: Recorder,
    /// Aggregate transport counters at the top of the current frame
    /// (recorder bookkeeping only).
    frame_stats_mark: TrafficStats,
    /// Transient send retries in the current frame.
    frame_retries: u64,
    /// Balancer transfer orders issued in the current frame.
    frame_orders: u64,
    /// Kernel chunks processed in the current frame (0 on the legacy
    /// serial path).
    frame_chunks: u64,
    /// Frame-loop scratch (reused, so the steady-state hot path stages
    /// creation and exchange without allocating).
    newborn_scratch: Vec<Particle>,
    create_batches: Vec<Vec<Particle>>,
    leavers_scratch: Vec<Particle>,
    /// Exchange staging: one spine per destination, drained every rank.
    exchange_dests: Vec<Vec<Particle>>,
    /// Destinations touched by the current rank's routing (sparse mode
    /// ships exactly these instead of walking all n).
    touched_scratch: Vec<usize>,
}

impl<F: Fabric> Engine<F> {
    #[allow(clippy::too_many_arguments)] // internal constructor mirroring the executors' fields
    pub fn new(
        scene: Scene,
        cfg: RunConfig,
        placement: &Placement,
        cost: CostModel,
        net: F,
        policy: FaultPolicy,
        trace: Trace,
        instrument: bool,
    ) -> Self {
        let n = placement.calculators();
        let n_sys = scene.systems.len();
        assert_eq!(net.ranks(), n + 2, "fabric must cover calculators + manager + image generator");
        let mgr_domains: Vec<DomainMap> = (0..n_sys)
            .map(|s| DomainMap::split_even(space_for(&scene, &cfg, s), AXIS, n))
            .collect();
        let shared0: Vec<Arc<DomainMap>> = mgr_domains.iter().cloned().map(Arc::new).collect();
        let calcs: Vec<CalcState> = (0..n)
            .map(|c| CalcState {
                stores: (0..n_sys)
                    .map(|s| SubDomainStore::new(mgr_domains[s].slice(c), AXIS, cfg.buckets))
                    .collect(),
                domains: shared0.clone(),
                compute_time: vec![0.0; n_sys],
                pre_count: vec![0; n_sys],
            })
            .collect();
        Engine {
            speeds: placement.ranks.iter().map(|r| r.speed).collect(),
            fe_speed: placement.frontend_speed,
            scale: cost.scale,
            n,
            mgr: n,
            ig: n + 1,
            round: 0,
            idle_rounds: vec![0; n_sys],
            frame_skips: 0,
            sparse: cfg.exchange.resolved(n) == ExchangeMode::Sparse,
            crashed: vec![false; n],
            dead: vec![false; n],
            missed: vec![0; n],
            recovered: vec![false; n],
            last_snapshot: None,
            recoveries: Vec::new(),
            dead_events: Vec::new(),
            lost: 0,
            frame_timeouts: 0,
            next_frame: 0,
            prev_makespan: 0.0,
            scene,
            cfg,
            cost,
            net,
            policy,
            calcs,
            mgr_domains,
            trace,
            rec: if instrument {
                Recorder::enabled(n + 2, ClockKind::Virtual)
            } else {
                Recorder::disabled()
            },
            frame_stats_mark: TrafficStats::default(),
            frame_retries: 0,
            frame_orders: 0,
            frame_chunks: 0,
            newborn_scratch: Vec::new(),
            create_batches: (0..n).map(|_| Vec::new()).collect(),
            leavers_scratch: Vec::new(),
            exchange_dests: (0..n).map(|_| Vec::new()).collect(),
            touched_scratch: Vec::new(),
        }
    }

    /// The fabric, for executor-side diagnostics (e.g. event-loop stats).
    pub fn fabric(&self) -> &F {
        &self.net
    }

    /// Run `f` and charge each rank's virtual-clock delta to `phase`.
    ///
    /// A pure *read* of the fabric: clocks are snapshotted before and after
    /// `f`, never moved. When the recorder is disabled `f` runs with zero
    /// overhead — no snapshots — so bare runs pay nothing.
    fn record_phase<T>(&mut self, frame: u64, phase: Phase, f: impl FnOnce(&mut Self) -> T) -> T {
        if !self.rec.is_enabled() {
            return f(self);
        }
        let ranks = self.net.ranks();
        let before: Vec<f64> = (0..ranks).map(|r| self.net.now(r)).collect();
        let out = f(self);
        for (r, &t0) in before.iter().enumerate() {
            let dt = self.net.now(r) - t0;
            if dt > 0.0 {
                self.rec.phase(frame, r, phase, dt);
            }
        }
        out
    }

    /// Flush the frame's event counters into the recorder (no-op when
    /// disabled beyond resetting the frame-local tallies).
    fn flush_frame_counters(&mut self, frame: u64, fr: &FrameReport) {
        let retries = std::mem::take(&mut self.frame_retries);
        let orders = std::mem::take(&mut self.frame_orders);
        let chunks = std::mem::take(&mut self.frame_chunks);
        let skips = std::mem::take(&mut self.frame_skips);
        if !self.rec.is_enabled() {
            return;
        }
        let now = self.net.stats();
        self.rec.add(frame, Counter::Messages, now.messages - self.frame_stats_mark.messages);
        self.rec.add(
            frame,
            Counter::PayloadBytes,
            now.payload_bytes - self.frame_stats_mark.payload_bytes,
        );
        self.rec.add(frame, Counter::Migrated, fr.migrated);
        self.rec.add(frame, Counter::MigrationBytes, fr.migration_bytes);
        self.rec.add(frame, Counter::Timeouts, fr.timeouts);
        self.rec.add(frame, Counter::SendRetries, retries);
        self.rec.add(frame, Counter::BalanceOrders, orders);
        self.rec.add(frame, Counter::ComputeChunks, chunks);
        self.rec.add(frame, Counter::BalanceSkips, skips);
    }

    /// The ranks that still take part in barriers: running calculators plus
    /// the manager (the manager and image generator never crash — they are
    /// the paper's front-end, assumed reliable).
    fn active_set(&self) -> Vec<usize> {
        (0..self.n).filter(|&c| !self.crashed[c]).chain([self.mgr]).collect()
    }

    /// Send with the degraded-mode rules: sends to a declared-dead rank are
    /// dropped (particle payloads counted as lost); sends to a crashed but
    /// undeclared rank are queued as usual (nobody knows yet) with their
    /// particles already counted — the queue is purged uncounted at
    /// declaration. Transient injector failures retry with exponential
    /// backoff charged in virtual ticks.
    fn send_to(&mut self, from: usize, to: usize, msg: Msg) -> Result<(), ProtocolError> {
        if to < self.n && (self.dead[to] || self.crashed[to]) {
            if let Msg::Particles { batch, .. } = &msg {
                self.lost += batch.len() as u64;
            }
            if self.dead[to] {
                return Ok(());
            }
        }
        let mut msg = msg;
        let mut attempt: u32 = 0;
        loop {
            match self.net.send(from, to, msg) {
                Ok(()) => return Ok(()),
                Err(failed) => {
                    attempt += 1;
                    self.frame_retries += 1;
                    if attempt >= self.policy.send_attempts {
                        return Err(failed.error.into());
                    }
                    msg = failed.msg;
                    // Exponential backoff, charged as virtual time.
                    self.net.advance(from, self.policy.backoff * (1u64 << (attempt - 1)) as f64);
                }
            }
        }
    }

    /// Receive with the degraded-mode rules: a declared-dead sender yields
    /// `None` immediately; a crashed-but-undeclared sender is waited on
    /// with a bounded deadline (the wait is charged, a miss is counted and
    /// yields `None`); a healthy sender must have delivered.
    fn recv_from(&mut self, to: usize, from: usize) -> Result<Option<Msg>, ProtocolError> {
        if from < self.n && self.dead[from] {
            return Ok(None);
        }
        if from < self.n && self.crashed[from] {
            return match self.net.recv_deadline(to, from, self.policy.recv_wait) {
                Ok(m) => Ok(Some(m)),
                Err(TransportError::Timeout { .. }) => {
                    self.frame_timeouts += 1;
                    Ok(None)
                }
                Err(e) => Err(e.into()),
            };
        }
        match self.net.recv(to, from) {
            Ok(m) => Ok(Some(m)),
            Err(e) => Err(e.into()),
        }
    }

    /// Apply the injector's frame-boundary rank faults: fail-stop crashes
    /// take effect at the start of their frame; one-shot stalls charge
    /// their virtual seconds before the rank does anything else.
    fn begin_frame(&mut self, frame: u64) {
        for c in 0..self.n {
            if self.crashed[c] {
                continue;
            }
            if !self.recovered[c] && self.net.crash_frame(c).is_some_and(|k| frame >= k) {
                self.crashed[c] = true;
                self.rec.fault(frame, c, FaultKind::Crash);
                continue;
            }
            let stall = self.net.stall_seconds(c, frame);
            if stall > 0.0 {
                self.net.advance(c, stall);
                self.rec.fault(frame, c, FaultKind::Stall);
            }
        }
    }

    /// The manager gives up on calculator `c`: confiscate its particles
    /// (lost with the rank), purge its in-flight queues, and collapse its
    /// slice toward the nearest alive neighbor so the partition invariant
    /// holds and the next `Domains` broadcast reassigns the space.
    fn declare_dead(&mut self, c: usize, frame: u64) -> Result<(), ProtocolError> {
        self.crashed[c] = true;
        self.dead[c] = true;
        self.missed[c] = 0;
        self.dead_events.push((c, frame));
        self.rec.fault(frame, c, FaultKind::DeclaredDead);
        if (0..self.n).all(|r| self.dead[r]) {
            return Err(ProtocolError::Domain {
                role: "manager",
                rank: self.mgr,
                frame,
                detail: "every calculator is dead; no neighbor can absorb the load".into(),
            });
        }
        let n_sys = self.scene.systems.len();
        for sys in 0..n_sys {
            let gone = self.calcs[c].stores[sys].take_all();
            self.lost += gone.len() as u64;
        }
        // Purge in-flight traffic both ways. Particle payloads queued
        // toward the rank were already counted lost at send time; anything
        // it sent pre-crash was consumed by the lock-step schedule.
        for r in 0..self.net.ranks() {
            if r != c {
                let _ = self.net.take_queued(c, r);
                let _ = self.net.take_queued(r, c);
            }
        }
        // Collapse the dead slice (and any dead run between `c` and the
        // absorbing neighbor) to zero width: the alive rank above inherits
        // the space, or the alive rank below when none exists above.
        // `owner_of` walks past zero-width slices, so routing never again
        // targets `c`.
        let above = (c + 1..self.n).find(|&r| !self.dead[r]);
        let below = (0..c).rev().find(|&r| !self.dead[r]);
        for sys in 0..n_sys {
            let dm = &mut self.mgr_domains[sys];
            let moved = if let Some(a) = above {
                let lo = dm.cuts()[c];
                (c..a).try_for_each(|b| dm.move_cut(b, lo))
            } else if let Some(b0) = below {
                let hi = dm.cuts()[c + 1];
                (b0..c).rev().try_for_each(|b| dm.move_cut(b, hi))
            } else {
                Ok(())
            };
            if let Err(e) = moved {
                return Err(ProtocolError::Domain {
                    role: "manager",
                    rank: self.mgr,
                    frame,
                    detail: format!("collapsing dead rank {c} slice: {e}"),
                });
            }
            if invariants::ENABLED {
                invariants::check_partition(
                    frame,
                    sys,
                    space_for(&self.scene, &self.cfg, sys),
                    &self.mgr_domains[sys],
                )?;
            }
        }
        Ok(())
    }

    /// Run the configured animation and produce the report; the trace is
    /// handed back alongside so executors can restore it.
    pub fn run(&mut self, cluster_label: String) -> (Result<RunReport, ProtocolError>, Trace) {
        let mut frames = Vec::with_capacity(self.cfg.frames as usize);
        let outcome = self.run_frames(&mut frames);
        let trace = std::mem::take(&mut self.trace);
        let result = outcome.map(|()| self.finish_report(cluster_label, frames));
        (result, trace)
    }

    /// Assemble the [`RunReport`] after every frame has been stepped (the
    /// caller holds the per-frame reports [`Engine::step_frame`] returned).
    /// Warm-up frames are filtered here, exactly as [`Engine::run`] does.
    pub fn finish_report(&mut self, cluster_label: String, frames: Vec<FrameReport>) -> RunReport {
        let phases = std::mem::replace(&mut self.rec, Recorder::disabled()).finish();
        let kept: Vec<FrameReport> =
            frames.into_iter().filter(|f| f.frame >= self.cfg.warmup).collect();
        RunReport {
            label: self.cfg.label(),
            cluster: cluster_label,
            calculators: self.n,
            total_time: self.net.makespan(),
            frames: kept,
            traffic: self.net.stats(),
            dead_ranks: self.dead_events.clone(),
            // Round to the nearest real particle: the truncating cast this
            // replaces dropped up to one particle per run at fractional
            // scale factors, making zero-loss gates flaky.
            lost_particles: scale_count(self.lost, self.scale),
            phases,
            recoveries: self.recoveries.clone(),
        }
    }

    /// Frames still to run before the animation completes.
    pub fn frames_remaining(&self) -> u64 {
        self.cfg.frames - self.next_frame
    }

    /// Recoveries performed so far (also carried on the finished report).
    pub fn recoveries(&self) -> &[RecoveryEvent] {
        &self.recoveries
    }

    /// Capture a complete frame-boundary snapshot: per-system store
    /// contents, every domain map (the manager's authoritative copy and
    /// each calculator's replica — they diverge under static balancing with
    /// dead ranks), the degraded-mode sets, the frame cursor, and the
    /// fabric's wire/injector state. Frame-local tallies (`frame_retries`
    /// and friends) are provably zero at a frame boundary and per-frame RNG
    /// re-derives from the frame cursor, so neither is captured — see
    /// [`crate::checkpoint`] for the full exclusion argument.
    ///
    /// Callers snapshot between [`Engine::step_frame`] calls (or let
    /// `cfg.checkpoint.interval` do it); a mid-phase snapshot is
    /// meaningless and unreachable from outside.
    pub fn snapshot(&self) -> EngineSnapshot {
        EngineSnapshot {
            next_frame: self.next_frame,
            round: self.round,
            prev_makespan: self.prev_makespan,
            lost: self.lost,
            idle_rounds: self.idle_rounds.clone(),
            crashed: self.crashed.clone(),
            dead: self.dead.clone(),
            missed: self.missed.clone(),
            dead_events: self.dead_events.clone(),
            mgr_cuts: self.mgr_domains.iter().map(|d| d.cuts().to_vec()).collect(),
            calcs: self
                .calcs
                .iter()
                .map(|cs| CalcSnapshot {
                    stores: cs
                        .stores
                        .iter()
                        .map(|st| StoreSnapshot {
                            slice: st.slice(),
                            buckets: st.bucket_count(),
                            particles: st.iter().copied().collect(),
                        })
                        .collect(),
                    cuts: cs.domains.iter().map(|d| d.cuts().to_vec()).collect(),
                    compute_time: cs.compute_time.clone(),
                    pre_count: cs.pre_count.clone(),
                })
                .collect(),
            fabric: self.net.save_fabric(),
        }
    }

    /// Rewind the engine to a previously captured snapshot.
    ///
    /// The engine must have been built from the same scene, config, and
    /// placement the snapshot was taken under (the session layer revives an
    /// evicted engine exactly this way: rebuild, then restore). Stores are
    /// rebuilt by re-inserting the snapshot's particles in captured order —
    /// bucket assignment is a pure function of position and within-bucket
    /// order is append order, so the layout comes back byte-identical.
    /// Queued fabric messages are dropped; replay regenerates them.
    pub fn restore(&mut self, snap: &EngineSnapshot) -> Result<(), ProtocolError> {
        let n_sys = self.scene.systems.len();
        let mgr = self.mgr;
        let shape_err = |detail: String| ProtocolError::Domain {
            role: "checkpoint",
            rank: mgr,
            frame: snap.next_frame,
            detail,
        };
        if snap.calcs.len() != self.n
            || snap.crashed.len() != self.n
            || snap.dead.len() != self.n
            || snap.missed.len() != self.n
            || snap.idle_rounds.len() != n_sys
            || snap.mgr_cuts.len() != n_sys
        {
            return Err(shape_err(format!(
                "snapshot shape mismatch: {} calculators / {} systems captured, engine has {} / {}",
                snap.calcs.len(),
                snap.mgr_cuts.len(),
                self.n,
                n_sys,
            )));
        }
        for (c, cs) in snap.calcs.iter().enumerate() {
            if cs.stores.len() != n_sys
                || cs.cuts.len() != n_sys
                || cs.compute_time.len() != n_sys
                || cs.pre_count.len() != n_sys
            {
                return Err(shape_err(format!(
                    "snapshot calculator {c} covers {} systems, engine has {n_sys}",
                    cs.stores.len(),
                )));
            }
        }
        let domain_err = |what: &str, e: psa_core::domain::DomainError| ProtocolError::Domain {
            role: "checkpoint",
            rank: mgr,
            frame: snap.next_frame,
            detail: format!("restoring {what}: {e}"),
        };
        let mut mgr_domains = Vec::with_capacity(n_sys);
        for (sys, cuts) in snap.mgr_cuts.iter().enumerate() {
            mgr_domains.push(
                DomainMap::from_cuts(AXIS, cuts.clone())
                    .map_err(|e| domain_err(&format!("manager domains for system {sys}"), e))?,
            );
        }
        let mut calc_domains = Vec::with_capacity(self.n);
        for (c, cs) in snap.calcs.iter().enumerate() {
            let mut per_sys = Vec::with_capacity(n_sys);
            for (sys, cuts) in cs.cuts.iter().enumerate() {
                per_sys.push(Arc::new(DomainMap::from_cuts(AXIS, cuts.clone()).map_err(|e| {
                    domain_err(&format!("calculator {c} domains for system {sys}"), e)
                })?));
            }
            calc_domains.push(per_sys);
        }
        // All inputs validated — mutate.
        self.mgr_domains = mgr_domains;
        for ((calc, cs), domains) in self.calcs.iter_mut().zip(&snap.calcs).zip(calc_domains) {
            for (store, ss) in calc.stores.iter_mut().zip(&cs.stores) {
                let mut rebuilt = SubDomainStore::new(ss.slice, AXIS, ss.buckets.max(1));
                for p in &ss.particles {
                    rebuilt.insert(*p);
                }
                *store = rebuilt;
            }
            calc.domains = domains;
            calc.compute_time.clone_from(&cs.compute_time);
            calc.pre_count.clone_from(&cs.pre_count);
        }
        self.next_frame = snap.next_frame;
        self.round = snap.round;
        self.prev_makespan = snap.prev_makespan;
        self.lost = snap.lost;
        self.idle_rounds.clone_from(&snap.idle_rounds);
        self.crashed.clone_from(&snap.crashed);
        self.dead.clone_from(&snap.dead);
        self.missed.clone_from(&snap.missed);
        self.dead_events.clone_from(&snap.dead_events);
        self.net.load_fabric(&snap.fabric);
        // Frame-local tallies are zero at every frame boundary; scratch is
        // drained by construction.
        self.frame_timeouts = 0;
        self.frame_retries = 0;
        self.frame_orders = 0;
        self.frame_chunks = 0;
        self.frame_skips = 0;
        self.newborn_scratch.clear();
        self.leavers_scratch.clear();
        self.touched_scratch.clear();
        for b in &mut self.create_batches {
            b.clear();
        }
        for b in &mut self.exchange_dests {
            b.clear();
        }
        if self.rec.is_enabled() {
            self.frame_stats_mark = self.net.stats();
        }
        Ok(())
    }

    /// Whole-engine rollback-replay recovery (`cfg.checkpoint.recover`):
    /// restore the last snapshot — which resurrects every rank that crashed
    /// after it — and deterministically re-run the frames up to `frame`
    /// with the trace and recorder suppressed, then re-apply the current
    /// frame's boundary faults. Replay regenerates byte-identical state
    /// *and* virtual time (the clocks rewind and recharge), so the finished
    /// run fingerprints exactly like an uninterrupted one; what recovery
    /// actually cost is reported separately as [`RecoveryEvent`]s.
    fn recover_crashed(&mut self, frame: u64) -> Result<(), ProtocolError> {
        let Some(snap) = self.last_snapshot.clone() else {
            return Ok(());
        };
        // Ranks that crashed after the snapshot can be resurrected; a rank
        // already crashed *in* the snapshot cannot (its state predates every
        // surviving checkpoint) and stays degraded. Both sets are marked
        // recovered so the planned crash — a permanent plan entry — never
        // re-trips and recovery never re-runs for them.
        let victims: Vec<usize> = (0..self.n)
            .filter(|&c| self.crashed[c] && !self.dead[c] && !self.recovered[c] && !snap.crashed[c])
            .collect();
        for c in 0..self.n {
            if self.crashed[c] && !self.dead[c] {
                self.recovered[c] = true;
            }
        }
        if victims.is_empty() {
            return Ok(());
        }
        let particles_restored: Vec<u64> = victims
            .iter()
            .map(|&c| snap.calcs[c].stores.iter().map(|s| s.particles.len() as u64).sum())
            .collect();
        self.restore(&snap)?;
        let mk0 = self.net.makespan();
        // Replay quietly: the trace and recorder must describe the run
        // once, not the rolled-back window twice.
        let saved_trace = std::mem::take(&mut self.trace);
        let saved_rec = std::mem::replace(&mut self.rec, Recorder::disabled());
        let mut replayed = 0u64;
        let mut replay_result = Ok(());
        while self.next_frame < frame {
            match self.step_frame() {
                Ok(_) => replayed += 1,
                Err(e) => {
                    replay_result = Err(e);
                    break;
                }
            }
        }
        self.trace = saved_trace;
        self.rec = saved_rec;
        replay_result?;
        // Re-apply the current frame's boundary faults the rollback wiped
        // (stalls on healthy ranks; the victims now skip their crash via
        // the recovered flag). Quiet: the pre-rollback begin_frame already
        // recorded these fault events once.
        let saved_rec = std::mem::replace(&mut self.rec, Recorder::disabled());
        self.begin_frame(frame);
        self.rec = saved_rec;
        let replay_virtual_secs = self.net.makespan() - mk0;
        self.rec.add(frame, Counter::Restores, 1);
        if self.rec.is_enabled() {
            self.frame_stats_mark = self.net.stats();
        }
        for (&rank, &restored) in victims.iter().zip(&particles_restored) {
            self.recoveries.push(RecoveryEvent {
                rank,
                frame,
                snapshot_frame: snap.next_frame,
                frames_replayed: replayed,
                particles_restored: restored,
                replay_virtual_secs,
            });
        }
        Ok(())
    }

    fn run_frames(&mut self, frames: &mut Vec<FrameReport>) -> Result<(), ProtocolError> {
        while let Some(fr) = self.step_frame()? {
            frames.push(fr);
        }
        Ok(())
    }

    /// Run the next frame of the animation and return its report, or
    /// `Ok(None)` once every configured frame has run.
    ///
    /// This is the cooperative-scheduling entry point: the session layer
    /// interleaves many engines by stepping each a frame (or a slice of
    /// frames) at a time. A full run is exactly `step_frame` until `None`
    /// ([`Engine::run`] is implemented that way), so a stepped engine's
    /// state — and therefore its report fingerprint — is byte-identical to
    /// a solo run's no matter how steps interleave with other engines.
    pub fn step_frame(&mut self) -> Result<Option<FrameReport>, ProtocolError> {
        if self.next_frame >= self.cfg.frames {
            return Ok(None);
        }
        let interval = self.cfg.checkpoint.interval;
        if interval > 0 && self.next_frame > 0 && self.next_frame.is_multiple_of(interval) {
            self.rec.add(self.next_frame, Counter::Snapshots, 1);
            self.last_snapshot = Some(self.snapshot());
        }
        let frame = self.next_frame;
        let n_sys = self.scene.systems.len();
        {
            if self.rec.is_enabled() {
                self.frame_stats_mark = self.net.stats();
            }
            self.begin_frame(frame);
            if self.cfg.checkpoint.recover
                && self.last_snapshot.is_some()
                && (0..self.n).any(|c| self.crashed[c] && !self.dead[c] && !self.recovered[c])
            {
                self.recover_crashed(frame)?;
            }
            let mut fr = FrameReport { frame, ..Default::default() };

            match self.cfg.schedule {
                SystemSchedule::PerSystem => {
                    for sys in 0..n_sys {
                        self.record_phase(frame, Phase::Compute, |e| {
                            e.phase_creation(frame, sys)?;
                            e.phase_addition(frame, sys)?;
                            e.phase_calculus(frame, sys);
                            e.phase_collision(frame, sys)
                        })?;
                        self.record_phase(frame, Phase::Exchange, |e| {
                            e.phase_exchange(frame, sys, &mut fr)
                        })?;
                        let loads = self.record_phase(frame, Phase::LoadReport, |e| {
                            e.phase_loads(frame, sys)
                        })?;
                        self.record_phase(frame, Phase::Balance, |e| {
                            e.phase_balance(frame, sys, &loads, &mut fr)
                        })?;
                        self.record_phase(frame, Phase::Ship, |e| {
                            e.phase_ship(frame, sys, &mut fr)
                        })?;
                    }
                }
                SystemSchedule::Batched => {
                    self.record_phase(frame, Phase::Compute, |e| {
                        for sys in 0..n_sys {
                            e.phase_creation(frame, sys)?;
                            e.phase_addition(frame, sys)?;
                        }
                        for sys in 0..n_sys {
                            e.phase_calculus(frame, sys);
                            e.phase_collision(frame, sys)?;
                        }
                        Ok::<(), ProtocolError>(())
                    })?;
                    self.record_phase(frame, Phase::Exchange, |e| {
                        (0..n_sys).try_for_each(|sys| e.phase_exchange(frame, sys, &mut fr))
                    })?;
                    for sys in 0..n_sys {
                        let loads = self.record_phase(frame, Phase::LoadReport, |e| {
                            e.phase_loads(frame, sys)
                        })?;
                        self.record_phase(frame, Phase::Balance, |e| {
                            e.phase_balance(frame, sys, &loads, &mut fr)
                        })?;
                    }
                    self.record_phase(frame, Phase::Ship, |e| {
                        (0..n_sys).try_for_each(|sys| e.phase_ship(frame, sys, &mut fr))
                    })?;
                }
            }

            self.record_phase(frame, Phase::Render, |e| {
                // Fixed per-frame image cost (clear, encode, write).
                e.net.advance(e.ig, e.cost.per_frame_render_fixed / e.fe_speed);
                e.trace.record(frame, ProtocolEvent::ImageGeneration);

                // Parallel-phases frame boundary for the surviving compute
                // processes.
                let active = e.active_set();
                e.net.barrier(&active);
            });

            // Per-frame accounting (survivors only).
            let counts: Vec<f64> = (0..self.n)
                .filter(|&c| !self.crashed[c])
                .map(|c| self.calcs[c].stores.iter().map(|s| s.len() as f64).sum::<f64>())
                .collect();
            fr.imbalance = imbalance(&counts);
            let mk = self.net.makespan();
            fr.frame_time = mk - self.prev_makespan;
            self.prev_makespan = mk;
            fr.timeouts = self.frame_timeouts;
            self.frame_timeouts = 0;
            self.flush_frame_counters(frame, &fr);
            self.next_frame += 1;
            Ok(Some(fr))
        }
    }

    /// Creation at the manager (paper §3.2.1): emit, route by domain, ship
    /// batches with end-of-transmission markers.
    fn phase_creation(&mut self, frame: u64, sys: usize) -> Result<(), ProtocolError> {
        let spec = self.scene.systems[sys].spec.clone();
        let mut rng_c = stream(self.cfg.seed, TAG_CREATE, frame, sys, 0);
        let mut newborn = std::mem::take(&mut self.newborn_scratch);
        newborn.clear();
        if frame == 0 {
            newborn = spec.emit_initial(&mut rng_c);
        }
        newborn.extend((0..spec.emit_per_frame).map(|_| spec.emit_one(&mut rng_c)));
        self.net.advance(self.mgr, self.cost.create_time(newborn.len(), self.fe_speed));
        if sys == 0 {
            self.trace.record(frame, ProtocolEvent::ParticleCreation);
        }
        for p in newborn.drain(..) {
            self.create_batches[self.mgr_domains[sys].owner_of(p.position.along(AXIS))].push(p);
        }
        self.newborn_scratch = newborn;
        for c in 0..self.n {
            // The message owns its batch (it crosses the fabric); only the
            // staging spine and its capacity are reused.
            let batch: Vec<Particle> = self.create_batches[c].drain(..).collect();
            self.send_to(
                self.mgr,
                c,
                Msg::Particles { system: spec.id, batch, scale: self.scale },
            )?;
            self.send_to(self.mgr, c, Msg::EndOfTransmission { system: spec.id })?;
        }
        Ok(())
    }

    /// Calculators receive and store the newborn batches.
    fn phase_addition(&mut self, frame: u64, sys: usize) -> Result<(), ProtocolError> {
        for c in 0..self.n {
            if self.crashed[c] {
                continue;
            }
            let batch = expect_virt!(self, c, self.mgr, frame,
                Msg::Particles { batch, .. } => batch, "Particles");
            expect_virt!(self, c, self.mgr, frame,
                Msg::EndOfTransmission { .. } => (), "EndOfTransmission");
            self.net.advance(c, self.cost.pack_time(batch.len(), self.speeds[c]));
            self.calcs[c].stores[sys].extend(batch);
        }
        if sys == 0 {
            self.trace.record(frame, ProtocolEvent::AdditionToLocalSet);
        }
        Ok(())
    }

    /// The action list ("Calculus" in Figure 2). A rank's injected
    /// slowdown inflates both the charged time and the load it will
    /// report, so dynamic balancing shifts work away from slow nodes.
    fn phase_calculus(&mut self, frame: u64, sys: usize) {
        let setup = self.scene.systems[sys].clone();
        for c in 0..self.n {
            if self.crashed[c] {
                continue;
            }
            let rng_a = stream(self.cfg.seed, TAG_ACTIONS, frame, sys, c + 1);
            let pre = self.calcs[c].stores[sys].len();
            // The chunked kernel (legacy serial stream when chunk == 0).
            // Virtual time stays worker-count-invariant: the charged cost
            // depends only on the weighted work, so the same seed yields the
            // same fingerprint at every worker count.
            let kr = kernel::run_actions(
                &setup.actions,
                self.cfg.dt,
                frame,
                rng_a,
                &mut self.calcs[c].stores[sys],
                self.cfg.parallel.chunk,
                self.cfg.parallel.workers,
            );
            self.frame_chunks += kr.chunks;
            let factor = self.net.compute_factor(c);
            let t = self.cost.weighted_work_time(kr.weighted, self.speeds[c]) * factor;
            self.net.advance(c, t);
            self.calcs[c].compute_time[sys] = t;
            self.calcs[c].pre_count[sys] = pre.max(1);
        }
        if sys == 0 {
            self.trace.record(frame, ProtocolEvent::Calculus);
        }
    }

    /// Optional inter-particle collision with ghost-slab exchange
    /// (§3.1.4 / the "exchanged during the computation" mode of §3.1.5).
    /// Ghosts are read-only copies, so a slab lost to a crashed neighbor
    /// degrades collision quality at the boundary without losing particles.
    fn phase_collision(&mut self, frame: u64, sys: usize) -> Result<(), ProtocolError> {
        let Some(col) = self.scene.collision else {
            return Ok(());
        };
        use psa_core::collide::{colliding_pairs, resolve_elastic_with_ghosts};
        let spec_id = self.scene.systems[sys].spec.id;
        let n = self.n;
        let slabs: Vec<Option<(Vec<Particle>, Vec<Particle>)>> = (0..n)
            .map(|c| {
                if self.crashed[c] {
                    None
                } else {
                    Some(self.calcs[c].stores[sys].boundary_slabs(col.cell))
                }
            })
            .collect();
        for (c, slab) in slabs.into_iter().enumerate() {
            let Some((low, high)) = slab else {
                continue;
            };
            if c > 0 {
                self.send_to(
                    c,
                    c - 1,
                    Msg::Ghosts { system: spec_id, batch: low, scale: self.scale },
                )?;
            }
            if c + 1 < n {
                self.send_to(
                    c,
                    c + 1,
                    Msg::Ghosts { system: spec_id, batch: high, scale: self.scale },
                )?;
            }
        }
        for c in 0..n {
            if self.crashed[c] {
                continue;
            }
            let mut ghosts: Vec<Particle> = Vec::new();
            for d in [c.wrapping_sub(1), c + 1] {
                if d >= n || d == c {
                    continue;
                }
                match self.recv_from(c, d)? {
                    Some(Msg::Ghosts { batch, .. }) => ghosts.extend(batch),
                    Some(other) => {
                        return Err(ProtocolError::UnexpectedMessage {
                            role: "calculator",
                            rank: c,
                            frame,
                            expected: "Ghosts",
                            got: other.kind(),
                        })
                    }
                    None => {} // crashed/dead neighbor: no slab this frame
                }
            }
            let mut locals = self.calcs[c].stores[sys].take_all();
            let pairs = colliding_pairs(&locals, &ghosts, col.cell);
            resolve_elastic_with_ghosts(&mut locals, &ghosts, &pairs, col.restitution);
            let factor = self.net.compute_factor(c);
            let t = self.cost.collision_time(locals.len() + ghosts.len(), self.speeds[c]) * factor;
            self.net.advance(c, t);
            self.calcs[c].compute_time[sys] += t;
            self.calcs[c].stores[sys].extend(locals);
        }
        Ok(())
    }

    /// The one exchange-phase send site (dense and sparse both route here,
    /// so the Figure-2 event order has a single definition).
    fn ship_exchange(
        &mut self,
        from: usize,
        to: usize,
        system: SystemId,
        batch: Vec<Particle>,
    ) -> Result<(), ProtocolError> {
        self.send_to(from, to, Msg::Particles { system, batch, scale: self.scale })
    }

    /// The one exchange-phase receive site (see [`Self::ship_exchange`]).
    fn recv_exchange(
        &mut self,
        c: usize,
        d: usize,
        frame: u64,
        sys: usize,
        incoming: &mut [usize],
    ) -> Result<(), ProtocolError> {
        match self.recv_from(c, d)? {
            Some(Msg::Particles { batch, .. }) => {
                incoming[c] += batch.len();
                self.net.advance(c, self.cost.pack_time(batch.len(), self.speeds[c]));
                self.calcs[c].stores[sys].extend(batch);
            }
            Some(other) => {
                return Err(ProtocolError::UnexpectedMessage {
                    role: "calculator",
                    rank: c,
                    frame,
                    expected: "Particles",
                    got: other.kind(),
                })
            }
            None => {} // crashed peer sent nothing; wait was charged
        }
        Ok(())
    }

    /// End-of-frame particle exchange: leavers ship directly to their new
    /// owner (all domains are globally known). Dense mode sends one message
    /// per ordered pair — Figure 2 verbatim, bit-identical to the historical
    /// executor; sparse mode ships only non-empty batches and receives from
    /// exactly the queued senders. Under `strict-invariants` the phase
    /// checks per-rank and global conservation, with the global check
    /// crediting particles lost toward crashed/dead destinations.
    fn phase_exchange(
        &mut self,
        frame: u64,
        sys: usize,
        fr: &mut FrameReport,
    ) -> Result<(), ProtocolError> {
        let n = self.n;
        let spec_id = self.scene.systems[sys].spec.id;
        let sparse = self.sparse;
        let lost_at_start = self.lost;
        let mut before = vec![0usize; n];
        let mut outgoing = vec![0usize; n];
        let mut incoming = vec![0usize; n];
        for c in 0..n {
            if self.crashed[c] {
                continue;
            }
            let len = self.calcs[c].stores[sys].len();
            before[c] = len;
            self.net.advance(c, self.cost.exchange_check_time(len, self.speeds[c]));
            self.calcs[c].stores[sys].collect_leavers_into(&mut self.leavers_scratch);
            {
                let dm = &self.calcs[c].domains[sys];
                for p in self.leavers_scratch.drain(..) {
                    let owner = dm.owner_of(p.position.along(AXIS));
                    if owner != c && self.exchange_dests[owner].is_empty() {
                        self.touched_scratch.push(owner);
                    }
                    self.exchange_dests[owner].push(p);
                }
            }
            self.calcs[c].stores[sys].extend(self.exchange_dests[c].drain(..));
            let total_sent: usize = self.exchange_dests.iter().map(Vec::len).sum();
            outgoing[c] = total_sent;
            self.net.advance(c, self.cost.pack_time(total_sent, self.speeds[c]));
            // "particles that belong to another calculator" (§5.1):
            // only actually-shipped particles count as migration.
            fr.migrated += (total_sent as f64 * self.scale) as u64;
            fr.migration_bytes += self.cost.wire_bytes(total_sent, WIRE_BYTES);
            if sparse {
                let mut touched = std::mem::take(&mut self.touched_scratch);
                touched.sort_unstable();
                for &d in &touched {
                    let batch: Vec<Particle> = self.exchange_dests[d].drain(..).collect();
                    self.ship_exchange(c, d, spec_id, batch)?;
                }
                touched.clear();
                self.touched_scratch = touched;
            } else {
                self.touched_scratch.clear();
                for d in 0..n {
                    if d != c {
                        let batch: Vec<Particle> = self.exchange_dests[d].drain(..).collect();
                        self.ship_exchange(c, d, spec_id, batch)?;
                    }
                }
            }
        }
        for c in 0..n {
            if self.crashed[c] {
                continue;
            }
            if sparse {
                // Only the ranks with queued traffic — O(migrants), and
                // ascending rank order keeps the schedule deterministic.
                let senders = self.net.queued_senders(c);
                for d in senders {
                    if d < n && d != c {
                        self.recv_exchange(c, d, frame, sys, &mut incoming)?;
                    }
                }
            } else {
                for d in 0..n {
                    if d == c || self.dead[d] {
                        continue;
                    }
                    self.recv_exchange(c, d, frame, sys, &mut incoming)?;
                }
            }
        }
        if invariants::ENABLED {
            let mut before_sum = 0usize;
            let mut after_sum = 0usize;
            for c in 0..n {
                if self.crashed[c] {
                    continue;
                }
                let after = self.calcs[c].stores[sys].len();
                invariants::check_exchange_conservation(
                    frame,
                    sys,
                    c,
                    before[c],
                    outgoing[c],
                    incoming[c],
                    after,
                )?;
                // A NaN position evades every slice (owner_of cannot place
                // it) while conservation still balances — reject it here.
                invariants::check_finite_positions(
                    frame,
                    sys,
                    c,
                    self.calcs[c].stores[sys].iter(),
                )?;
                before_sum += before[c];
                after_sum += after;
            }
            invariants::check_global_conservation_with_losses(
                frame,
                sys,
                before_sum,
                after_sum,
                (self.lost - lost_at_start) as usize,
            )?;
        }
        if sys == 0 {
            self.trace.record(frame, ProtocolEvent::ParticleExchange);
        }
        Ok(())
    }

    /// Load reports (paper §3.2.4), with the time rescaled to the
    /// post-exchange population. Under the centralized modes the manager
    /// gathers them; under the decentralized mode each calculator also
    /// shares its report with its domain neighbors. A calculator that
    /// misses [`FaultPolicy::dead_after`] consecutive gathers is declared
    /// dead. `None` entries mark ranks the manager has no report from.
    fn phase_loads(
        &mut self,
        frame: u64,
        sys: usize,
    ) -> Result<Vec<Option<LoadInfo>>, ProtocolError> {
        let n = self.n;
        let spec_id = self.scene.systems[sys].spec.id;
        let decentralized = self.cfg.balance.is_decentralized();
        // Gossip partners for the decentralized modes: the nearest
        // non-dead rank on each side (a dead rank's slice is collapsed, so
        // the next surviving rank really is the domain neighbor).
        let left_of = |e: &Self, c: usize| (0..c).rev().find(|&d| !e.dead[d]);
        let right_of = |e: &Self, c: usize| (c + 1..n).find(|&d| !e.dead[d]);
        for c in 0..n {
            if self.crashed[c] {
                continue;
            }
            let count = self.calcs[c].stores[sys].len();
            let time = self.calcs[c].compute_time[sys] * count as f64
                / self.calcs[c].pre_count[sys] as f64;
            let info = LoadInfo { count, time };
            self.send_to(c, self.mgr, Msg::Load { system: spec_id, info, migrated: 0 })?;
            if decentralized && !self.dead[c] {
                for d in [left_of(self, c), right_of(self, c)].into_iter().flatten() {
                    self.send_to(c, d, Msg::Load { system: spec_id, info, migrated: 0 })?;
                }
            }
        }
        let mut loads: Vec<Option<LoadInfo>> = vec![None; n];
        for c in 0..n {
            if self.dead[c] {
                continue;
            }
            match self.recv_from(self.mgr, c)? {
                Some(Msg::Load { info, .. }) => {
                    loads[c] = Some(info);
                    self.missed[c] = 0;
                }
                Some(other) => {
                    return Err(ProtocolError::UnexpectedMessage {
                        role: "manager",
                        rank: self.mgr,
                        frame,
                        expected: "Load",
                        got: other.kind(),
                    })
                }
                None => {
                    self.missed[c] += 1;
                    if self.missed[c] >= self.policy.dead_after {
                        self.declare_dead(c, frame)?;
                    }
                }
            }
        }
        if decentralized {
            // Each calculator consumes its neighbors' reports (the content
            // equals `loads`; the receive charges the communication). The
            // partner walk mirrors the send side exactly, so no report is
            // left queued on a link.
            for c in 0..n {
                if self.crashed[c] || self.dead[c] {
                    continue;
                }
                for d in [left_of(self, c), right_of(self, c)].into_iter().flatten() {
                    match self.recv_from(c, d)? {
                        Some(Msg::Load { .. }) | None => {}
                        Some(other) => {
                            return Err(ProtocolError::UnexpectedMessage {
                                role: "calculator",
                                rank: c,
                                frame,
                                expected: "Load",
                                got: other.kind(),
                            })
                        }
                    }
                }
            }
        }
        if sys == 0 {
            self.trace.record(frame, ProtocolEvent::LoadInformation);
        }
        Ok(loads)
    }

    /// The balancing phase: one strategy round behind the
    /// [`balance::Balancer`] trait — centralized strategies (neighbor-pair,
    /// hierarchical/SFC) order via the manager, decentralized ones
    /// (half-excess, diffusive) decide pair-locally from the reports
    /// gossiped in [`Engine::phase_loads`] — or the plain synchronization
    /// step static balancing needs. Degraded-mode domain reassignment rides
    /// the centralized modes' every-round `Domains` broadcast; the static
    /// mode has no broadcast, so a dead slice stays collapsed but survivors
    /// keep stale replicas (their misdirected sends are counted as lost).
    ///
    /// Every strategy decides over the *present* set (the ranks whose
    /// reports arrived), in present-index space, with transfers mapped back
    /// to real ranks — the `evaluate_present` contract, checked per round
    /// by [`balance::validate_round`].
    ///
    /// A dead balancer also stops charging for the phase: after
    /// `idle_after` consecutive zero-order rounds the phase short-circuits
    /// to the barrier static balancing pays (re-probing every
    /// `reprobe_period` frames), so a configuration whose every candidate
    /// move is suppressed — the BENCH_5 dead zone — recovers toward the SLB
    /// makespan instead of paying the full order/broadcast round-trip for
    /// nothing. The skip decision is a pure function of decided-transfer
    /// history, so every executor skips the same rounds and same-seed
    /// fingerprints stay aligned.
    fn phase_balance(
        &mut self,
        frame: u64,
        sys: usize,
        loads: &[Option<LoadInfo>],
        fr: &mut FrameReport,
    ) -> Result<(), ProtocolError> {
        let strategy = match balancers::strategy_for(&self.cfg.balance) {
            Some(s) => s,
            None => {
                // Without balancing the model still requires a
                // synchronization step (paper §3.2) so a fast calculator
                // cannot race a frame ahead.
                let active = self.active_set();
                self.net.barrier(&active);
                return Ok(());
            }
        };
        let bcfg = *self.cfg.balance.balancer_config().expect("dynamic mode carries a config");
        if balance::should_skip_round(self.idle_rounds[sys], frame, &bcfg) {
            self.frame_skips += 1;
            let active = self.active_set();
            self.net.barrier(&active);
            return Ok(());
        }
        let present: Vec<usize> = (0..self.n).filter(|&c| loads[c].is_some()).collect();
        let pl: Vec<LoadInfo> = present.iter().filter_map(|&c| loads[c]).collect();
        let powers: Vec<f64> = present.iter().map(|&c| self.speeds[c]).collect();
        let transfers = if present.len() >= 2 {
            strategy.decide(&pl, &powers, &present, self.round, &bcfg)
        } else {
            Vec::new()
        };
        self.round += 1;
        self.idle_rounds[sys] =
            if transfers.is_empty() { self.idle_rounds[sys].saturating_add(1) } else { 0 };
        debug_assert!(
            balance::validate_round(&transfers, &pl, &present, strategy.multi_pair()).is_ok(),
            "{} produced an invalid round: {:?}",
            strategy.name(),
            balance::validate_round(&transfers, &pl, &present, strategy.multi_pair())
        );
        // The centralized branch comes first in token order: the Figure-2
        // conformance pass inlines `execute_transfers` at its first call
        // site, and the protocol order is Orders before NewCut/Domains.
        if !strategy.decentralized() {
            self.net.advance(
                self.mgr,
                self.cost.balance_eval_time(present.len().saturating_sub(1), self.fe_speed),
            );
            if sys == 0 {
                self.trace.record(frame, ProtocolEvent::LoadBalancingEvaluation);
            }
            let spec_id = self.scene.systems[sys].spec.id;
            let round_orders = transfers.len() as u32;
            for &c in &present {
                self.send_to(
                    self.mgr,
                    c,
                    Msg::Orders {
                        system: spec_id,
                        orders: balance::orders_for(&transfers, c),
                        round_orders,
                    },
                )?;
            }
            for &c in &present {
                expect_virt!(self, c, self.mgr, frame, Msg::Orders { .. } => (), "Orders");
            }
            if sys == 0 {
                self.trace.record(frame, ProtocolEvent::LoadBalancingOrders);
            }
            self.execute_transfers(frame, sys, &transfers, fr, true)?;
        } else {
            // Every pair decides from the reports exchanged in phase_loads;
            // the computation is replicated and identical on both
            // endpoints, so no orders are needed. Pairs with a silent
            // endpoint skip their round.
            for c in 0..self.n {
                if self.crashed[c] {
                    continue;
                }
                self.net.advance(c, self.cost.balance_eval_time(2, self.speeds[c]));
            }
            if sys == 0 {
                self.trace.record(frame, ProtocolEvent::LoadBalancingEvaluation);
            }
            self.execute_transfers(frame, sys, &transfers, fr, false)?;
        }
        Ok(())
    }

    /// Execute a decided transfer set: donors select particles and compute
    /// new cuts, the domain update is disseminated (via the manager when
    /// `via_manager`, else donor-broadcast), every calculator redefines its
    /// local domains, then the particles move. With dead ranks between a
    /// donor/receiver pair, the manager moves every boundary in the gap
    /// (the collapsed zero-width slices ride along with the cut).
    fn execute_transfers(
        &mut self,
        frame: u64,
        sys: usize,
        transfers: &[Transfer],
        fr: &mut FrameReport,
        via_manager: bool,
    ) -> Result<(), ProtocolError> {
        let n = self.n;
        let spec_id = self.scene.systems[sys].spec.id;
        self.frame_orders += transfers.len() as u64;

        // Donors prepare structures and compute new cuts. Decentralized
        // rounds may have one calculator donating on both sides; processing
        // transfers in boundary order keeps the donations sequential and
        // the kept-extent bookkeeping exact.
        let mut ordered: Vec<Transfer> = transfers.to_vec();
        ordered.sort_by_key(|t| t.donor.min(t.receiver));
        let mut donations: Vec<(usize, usize, Vec<Particle>)> = Vec::new();
        let mut cuts: Vec<(usize, usize, Scalar)> = Vec::new(); // (donor, receiver, cut)
        for t in &ordered {
            let donor = t.donor;
            let receiver = t.receiver;
            let amount = t.amount.min(self.calcs[donor].stores[sys].len());
            let step = donor_step(&mut self.calcs[donor].stores[sys], receiver < donor, amount);
            self.net.advance(
                donor,
                self.cost.sort_time(step.sorted, self.speeds[donor])
                    + self.cost.pack_time(step.selected, self.speeds[donor]),
            );
            cuts.push((donor, receiver, step.cut));
            donations.push((donor, receiver, step.donated));
        }
        if sys == 0 && !transfers.is_empty() {
            self.trace.record(frame, ProtocolEvent::PreparationOfStructures);
        }

        if via_manager {
            // Donors report cuts to the manager, which updates the
            // authoritative map and rebroadcasts (paper §3.2.5).
            for &(donor, receiver, cut) in &cuts {
                self.send_to(
                    donor,
                    self.mgr,
                    Msg::NewCut { system: spec_id, boundary: donor.min(receiver), cut },
                )?;
            }
            for &(donor, receiver, _) in &cuts {
                let cut = expect_virt!(self, self.mgr, donor, frame,
                    Msg::NewCut { cut, .. } => cut, "NewCut");
                apply_cut_span(&mut self.mgr_domains[sys], donor, receiver, cut).map_err(|e| {
                    ProtocolError::Domain {
                        role: "manager",
                        rank: self.mgr,
                        frame,
                        detail: format!("applying cut from donor {donor}: {e}"),
                    }
                })?;
            }
            for c in 0..n {
                if self.crashed[c] {
                    continue;
                }
                self.send_to(
                    self.mgr,
                    c,
                    Msg::Domains { system: spec_id, cuts: self.mgr_domains[sys].cuts().to_vec() },
                )?;
            }
            if sys == 0 && !transfers.is_empty() {
                self.trace.record(frame, ProtocolEvent::NewDimensionsAndDomains);
            }
            // One shared map for every calculator: the per-rank parse keeps
            // the broadcast's validation (and its typed error), the Arc
            // keeps 1,024 ranks from holding 1,024 copies.
            let shared = Arc::new(self.mgr_domains[sys].clone());
            for c in 0..n {
                if self.crashed[c] {
                    continue;
                }
                let new_cuts = expect_virt!(self, c, self.mgr, frame,
                    Msg::Domains { cuts, .. } => cuts, "Domains");
                let parsed =
                    DomainMap::from_cuts(AXIS, new_cuts).map_err(|e| ProtocolError::Domain {
                        role: "calculator",
                        rank: c,
                        frame,
                        detail: format!("broadcast domains invalid: {e}"),
                    })?;
                debug_assert_eq!(
                    parsed.cuts(),
                    shared.cuts(),
                    "broadcast domains diverged from manager state"
                );
                drop(parsed);
                self.apply_domains(c, sys, shared.clone());
            }
        } else {
            // Decentralized: each donor broadcasts its cut to every
            // running process (manager included — it still routes
            // creation), and every process applies the cuts in order.
            for &(donor, receiver, cut) in &cuts {
                for c in (0..n).chain([self.mgr]) {
                    if c != donor && !(c < n && self.crashed[c]) {
                        self.send_to(
                            donor,
                            c,
                            Msg::NewCut { system: spec_id, boundary: donor.min(receiver), cut },
                        )?;
                    }
                }
            }
            let applied: Vec<(usize, Scalar)> =
                cuts.iter().map(|&(d, r, cut)| (d.min(r), cut)).collect();
            for &(donor, _, _) in &cuts {
                for c in (0..n).chain([self.mgr]) {
                    if c != donor && !(c < n && self.crashed[c]) {
                        expect_virt!(self, c, donor, frame,
                            Msg::NewCut { .. } => (), "NewCut");
                    }
                }
            }
            for &(boundary, cut) in &applied {
                self.mgr_domains[sys].move_cut(boundary, cut).map_err(|e| {
                    ProtocolError::Domain {
                        role: "manager",
                        rank: self.mgr,
                        frame,
                        detail: format!("decentralized cut at boundary {boundary}: {e}"),
                    }
                })?;
            }
            let dm = Arc::new(self.mgr_domains[sys].clone());
            if sys == 0 && !transfers.is_empty() {
                self.trace.record(frame, ProtocolEvent::NewDimensionsAndDomains);
            }
            for c in 0..n {
                if self.crashed[c] {
                    continue;
                }
                self.apply_domains(c, sys, dm.clone());
            }
        }
        if sys == 0 && !transfers.is_empty() {
            self.trace.record(frame, ProtocolEvent::DefinitionOfLocalDomains);
        }

        // The donations themselves.
        for (donor, receiver, donated) in donations {
            fr.balanced += (donated.len() as f64 * self.scale) as u64;
            self.send_to(
                donor,
                receiver,
                Msg::Particles { system: spec_id, batch: donated, scale: self.scale },
            )?;
        }
        for t in &ordered {
            let batch = expect_virt!(self, t.receiver, t.donor, frame,
                Msg::Particles { batch, .. } => batch, "Particles");
            self.net.advance(t.receiver, self.cost.pack_time(batch.len(), self.speeds[t.receiver]));
            self.calcs[t.receiver].stores[sys].extend(batch);
        }
        if sys == 0 && !transfers.is_empty() {
            self.trace.record(frame, ProtocolEvent::LoadBalanceBetweenCalculators);
        }
        Ok(())
    }

    /// Install an updated domain map at calculator `c`, reshaping its store
    /// if its own slice changed.
    fn apply_domains(&mut self, c: usize, sys: usize, dm: Arc<DomainMap>) {
        let new_slice = dm.slice(c);
        self.calcs[c].domains[sys] = dm;
        if self.calcs[c].stores[sys].slice() != new_slice {
            let len = self.calcs[c].stores[sys].len();
            self.net.advance(c, self.cost.exchange_check_time(len, self.speeds[c]));
            let stray = self.calcs[c].stores[sys].reshape(new_slice);
            // Out-of-space particles pool at the edge calculators
            // (owner_of clamps); they stay here until a kill action removes
            // them. In-space strays would mean a broken cut.
            debug_assert!(
                {
                    let space = self.calcs[c].domains[sys].space();
                    stray.iter().all(|p| {
                        let v = p.position.along(AXIS);
                        v < space.lo || v >= space.hi
                    })
                },
                "in-space stray after reshape: rank {c} slice {new_slice} strays {:?}",
                stray.iter().map(|p| p.position.x).collect::<Vec<_>>(),
            );
            self.calcs[c].stores[sys].extend(stray);
        }
    }

    /// Ship render payloads to the image generator. The image generator
    /// tolerates silent (crashed) calculators — every post-crash frame is
    /// still rendered from the survivors' batches.
    fn phase_ship(
        &mut self,
        frame: u64,
        sys: usize,
        fr: &mut FrameReport,
    ) -> Result<(), ProtocolError> {
        let spec_id = self.scene.systems[sys].spec.id;
        for c in 0..self.n {
            if self.crashed[c] {
                continue;
            }
            let count = self.calcs[c].stores[sys].len();
            self.net.advance(c, self.cost.pack_time(count, self.speeds[c]));
            self.send_to(
                c,
                self.ig,
                Msg::RenderBatch { system: spec_id, count, scale: self.scale },
            )?;
        }
        let mut frame_particles = 0usize;
        for c in 0..self.n {
            match self.recv_from(self.ig, c)? {
                Some(Msg::RenderBatch { count, .. }) => frame_particles += count,
                Some(other) => {
                    return Err(ProtocolError::UnexpectedMessage {
                        role: "image generator",
                        rank: self.ig,
                        frame,
                        expected: "RenderBatch",
                        got: other.kind(),
                    })
                }
                None => {} // crashed/dead calculator: render without it
            }
        }
        self.net.advance(
            self.ig,
            self.cost.virt(frame_particles) * self.cost.per_render / self.fe_speed,
        );
        fr.alive += (frame_particles as f64 * self.scale) as u64;
        if sys == 0 {
            self.trace.record(frame, ProtocolEvent::ParticlesToImageGenerator);
        }
        Ok(())
    }
}

/// Move every boundary between `donor` and `receiver` to `cut`. Adjacent
/// pairs reduce to the single §3.2.5 `move_cut`; when declared-dead ranks
/// sit between the pair, their collapsed zero-width slices ride along with
/// the cut (every boundary strictly between an alive pair coincides at the
/// shared edge, which makes the sweep range-safe in both directions).
fn apply_cut_span(
    dm: &mut DomainMap,
    donor: usize,
    receiver: usize,
    cut: Scalar,
) -> Result<(), psa_core::domain::DomainError> {
    if donor < receiver {
        (donor..receiver).try_for_each(|b| dm.move_cut(b, cut))
    } else {
        (receiver..donor).rev().try_for_each(|b| dm.move_cut(b, cut))
    }
}

/// What one donor hands over for one balance order.
pub(crate) struct DonorStep {
    /// The particles that leave, all strictly on the receiver's side of `cut`.
    pub donated: Vec<Particle>,
    /// The donor's new boundary toward the receiver.
    pub cut: Scalar,
    /// Particles the store had to sort to pick the donation (cost model).
    pub sorted: usize,
    /// Particles picked before the tie guard gave any back (what the donor
    /// packed, cost model).
    pub selected: usize,
}

/// The donor side of one balance order, the same for the interleaved
/// engine and the SPMD calculator: take `amount` particles off the end
/// facing the receiver (`low_side` = the lower neighbor), place the new
/// cut with [`donation_cut`], and apply the half-open tie guard — slices
/// are `[lo, hi)`, so a selected particle that the cut leaves on the
/// donor's side (one tied exactly at it) goes back into the store.
pub(crate) fn donor_step(store: &mut SubDomainStore, low_side: bool, amount: usize) -> DonorStep {
    let old_slice = store.slice();
    let (mut donated, sorted) =
        if low_side { store.donate_low(amount) } else { store.donate_high(amount) };
    let selected = donated.len();
    let cut = donation_cut(low_side, &donated, store.extent(), old_slice);
    let leaves = |p: &Particle| (p.position.along(AXIS) < cut) == low_side;
    let give_back: Vec<Particle> = donated.iter().filter(|p| !leaves(p)).copied().collect();
    donated.retain(leaves);
    store.extend(give_back);
    DonorStep { donated, cut, sorted, selected }
}

/// Compute the new domain cut after a donation (shared by every executor
/// that rebalances).
///
/// `low_side` is true when donating toward the *left* (lower) neighbor.
/// `kept` is the donor's remaining extent along the axis. The cut is placed
/// midway between the donated extreme and the kept extreme, falling back to
/// the old slice edge when one side is empty.
pub fn donation_cut(
    low_side: bool,
    donated: &[Particle],
    kept: Option<(Scalar, Scalar)>,
    old_slice: Interval,
) -> Scalar {
    let axis = AXIS;
    if donated.is_empty() {
        return if low_side { old_slice.lo } else { old_slice.hi };
    }
    let cut = if low_side {
        // Donor keeps [cut, hi): kept_min >= cut always holds for any cut
        // <= kept_min, and donated particles at exactly `cut` are returned
        // to the donor by the caller's tie guard.
        let donated_max =
            donated.iter().map(|p| p.position.along(axis)).fold(Scalar::NEG_INFINITY, Scalar::max);
        match kept {
            Some((kept_min, _)) => 0.5 * (donated_max + kept_min),
            None => old_slice.hi,
        }
    } else {
        // Donor keeps [lo, cut): the cut must be STRICTLY above kept_max or
        // kept particles fall outside the half-open slice. When the
        // midpoint collapses onto kept_max (tied positions — e.g. a whole
        // emission cohort from a point source), fall back to the smallest
        // donated coordinate strictly above kept_max; if none exists the
        // donation degenerates and the boundary stays put (the caller's tie
        // guard returns every donated particle to the donor).
        let donated_min =
            donated.iter().map(|p| p.position.along(axis)).fold(Scalar::INFINITY, Scalar::min);
        match kept {
            Some((_, kept_max)) => {
                let mid = 0.5 * (kept_max + donated_min);
                if mid > kept_max {
                    mid
                } else {
                    let next = donated
                        .iter()
                        .map(|p| p.position.along(axis))
                        .filter(|v| *v > kept_max)
                        .fold(Scalar::INFINITY, Scalar::min);
                    if next.is_finite() {
                        next
                    } else {
                        old_slice.hi
                    }
                }
            }
            None => old_slice.lo,
        }
    };
    // Stray particles can sit *outside* the donor's slice (finite-space
    // workloads let positions overshoot the space edge between exchanges),
    // and a thin donation can then place the midpoint beyond the domain
    // boundary's legal range — `move_cut` would reject the round. The new
    // boundary always lies within the donor's old slice (donation only
    // shrinks the donor), so clamping there is exact, and a no-op for
    // infinite spaces.
    cut.clamp(old_slice.lo, old_slice.hi)
}

// ---------------------------------------------------------------------------
// SPMD role bodies (the threaded executor spawns these on real threads).
// ---------------------------------------------------------------------------

pub(crate) fn space_for(scene: &Scene, cfg: &RunConfig, sys: usize) -> Interval {
    match cfg.space {
        SpaceMode::Finite => scene.systems[sys].spec.space,
        SpaceMode::Infinite => Interval::INFINITE,
    }
}

/// Bounded protocol receive: a silent peer surfaces as a typed
/// [`ProtocolError::Timeout`] carrying role/rank/frame context instead of
/// blocking the executor forever on a lost thread.
pub(crate) fn recv_within(
    ep: &ThreadEndpoint<Msg>,
    from: usize,
    deadline: Duration,
    role: &'static str,
    rank: usize,
    frame: u64,
) -> Result<Msg, ProtocolError> {
    match ep.recv_deadline(from, deadline) {
        Ok(m) => Ok(m),
        Err(TransportError::Timeout { .. }) => {
            Err(ProtocolError::Timeout { role, rank, frame, peer: from })
        }
        Err(e) => Err(e.into()),
    }
}

/// Expect a specific message kind within the deadline; anything else is a
/// protocol violation.
macro_rules! expect_msg {
    ($ep:expr, $deadline:expr, $from:expr, $role:expr, $rank:expr, $frame:expr, $pat:pat => $out:expr, $want:expr) => {
        match recv_within(&$ep, $from, $deadline, $role, $rank, $frame)? {
            $pat => $out,
            other => {
                return Err(ProtocolError::UnexpectedMessage {
                    role: $role,
                    rank: $rank,
                    frame: $frame,
                    expected: $want,
                    got: other.kind(),
                })
            }
        }
    };
}

/// Charge the wall-clock interval since `*last` to `phase` and reset the
/// mark. The single timing primitive all three roles share: it only reads
/// the endpoint's epoch clock, so instrumentation cannot perturb protocol
/// state. A disabled recorder skips even the clock read.
fn mark(
    rec: &mut Recorder,
    last: &mut f64,
    ep: &ThreadEndpoint<Msg>,
    frame: u64,
    rank: usize,
    phase: Phase,
) {
    if !rec.is_enabled() {
        return;
    }
    let now = ep.now();
    rec.phase(frame, rank, phase, (now - *last).max(0.0));
    *last = now;
}

/// Flush the endpoint's sent-traffic delta since `mark` into the frame's
/// message/byte counters; returns the new mark.
fn flush_traffic(
    rec: &mut Recorder,
    ep: &ThreadEndpoint<Msg>,
    frame: u64,
    prev: TrafficStats,
) -> TrafficStats {
    if !rec.is_enabled() {
        return prev;
    }
    let now = ep.sent_stats();
    rec.add(frame, Counter::Messages, now.messages - prev.messages);
    rec.add(frame, Counter::PayloadBytes, now.payload_bytes - prev.payload_bytes);
    now
}

pub(crate) fn calculator_main(
    ep: ThreadEndpoint<Msg>,
    c: usize,
    n: usize,
    scene: &Scene,
    cfg: &RunConfig,
    mut domains: Vec<DomainMap>,
    instrument: bool,
) -> Result<Recorder, ProtocolError> {
    let mgr = n;
    let ig = n + 1;
    let n_sys = scene.systems.len();
    let deadline = Duration::from_secs_f64(cfg.recv_timeout_secs);
    let mut stores: Vec<SubDomainStore> = (0..n_sys)
        .map(|s| SubDomainStore::new(domains[s].slice(c), Axis::X, cfg.buckets))
        .collect();
    let mut trace = if invariants::ENABLED { Trace::enabled() } else { Trace::disabled() };
    let mut rec =
        if instrument { Recorder::enabled(n + 2, ClockKind::Wall) } else { Recorder::disabled() };
    let mut last = ep.now();
    let mut traffic_mark = ep.sent_stats();
    // Hot-path scratch, reused every frame: no steady-state allocation in
    // the exchange staging.
    let mut leavers: Vec<Particle> = Vec::new();
    let mut per_dest: Vec<Vec<Particle>> = (0..n).map(|_| Vec::new()).collect();
    // Zero-order streak per system, kept in lock-step with the manager via
    // the `round_orders` total each Orders message carries.
    let mut idle_rounds = vec![0u32; n_sys];

    for frame in 0..cfg.frames {
        for sys in 0..n_sys {
            let setup = &scene.systems[sys];
            // Creation: receive batch + EOT.
            let batch = expect_msg!(ep, deadline, mgr, "calculator", c, frame,
                Msg::Particles { batch, .. } => batch, "Particles");
            expect_msg!(ep, deadline, mgr, "calculator", c, frame,
                Msg::EndOfTransmission { .. } => (), "EndOfTransmission");
            stores[sys].extend(batch);
            trace.record(frame, ProtocolEvent::AdditionToLocalSet);

            // Calculus, through the chunked kernel (legacy serial stream
            // when cfg.parallel.chunk == 0).
            let t0 = ep.now();
            let rng = stream(cfg.seed, TAG_ACTIONS, frame, sys, c + 1);
            let pre = stores[sys].len().max(1);
            let kr = kernel::run_actions(
                &setup.actions,
                cfg.dt,
                frame,
                rng,
                &mut stores[sys],
                cfg.parallel.chunk,
                cfg.parallel.workers,
            );
            let compute = ep.now() - t0;
            trace.record(frame, ProtocolEvent::Calculus);
            mark(&mut rec, &mut last, &ep, frame, c, Phase::Compute);
            rec.add(frame, Counter::ComputeChunks, kr.chunks);

            // Exchange. `leavers`/`per_dest` are frame-loop scratch; only
            // the cross-thread sends allocate (the message owns its batch).
            let before_exchange = stores[sys].len();
            stores[sys].collect_leavers_into(&mut leavers);
            let migrated = leavers.len();
            for p in leavers.drain(..) {
                let owner = domains[sys].owner_of(p.position.x);
                per_dest[owner].push(p);
            }
            stores[sys].extend(per_dest[c].drain(..));
            let mut outgoing = 0usize;
            for (d, dest) in per_dest.iter_mut().enumerate() {
                if d != c {
                    outgoing += dest.len();
                    // Not `mem::take`: the message must own an exact-sized
                    // batch anyway, and draining keeps the staging spine's
                    // warmed capacity for the next frame.
                    #[allow(clippy::drain_collect)]
                    let batch: Vec<Particle> = dest.drain(..).collect();
                    ep.send(d, Msg::Particles { system: setup.spec.id, batch, scale: 1.0 })?;
                }
            }
            let mut incoming = 0usize;
            for d in 0..n {
                if d == c {
                    continue;
                }
                let batch = expect_msg!(ep, deadline, d, "calculator", c, frame,
                    Msg::Particles { batch, .. } => batch, "Particles");
                incoming += batch.len();
                stores[sys].extend(batch);
            }
            trace.record(frame, ProtocolEvent::ParticleExchange);
            if invariants::ENABLED {
                invariants::check_exchange_conservation(
                    frame,
                    sys,
                    c,
                    before_exchange,
                    outgoing,
                    incoming,
                    stores[sys].len(),
                )?;
                // Conservation balances even when a NaN position has put a
                // particle beyond every slice; reject the corruption itself.
                invariants::check_finite_positions(frame, sys, c, stores[sys].iter())?;
            }
            mark(&mut rec, &mut last, &ep, frame, c, Phase::Exchange);

            // Load report (time rescaled to post-exchange count, §3.2.4).
            let count = stores[sys].len();
            let time = match cfg.load_metric {
                LoadMetric::WallClock => compute * count as f64 / pre as f64,
                LoadMetric::CountProportional => count as f64,
            };
            ep.send(
                mgr,
                Msg::Load { system: setup.spec.id, info: LoadInfo { count, time }, migrated },
            )?;
            trace.record(frame, ProtocolEvent::LoadInformation);
            mark(&mut rec, &mut last, &ep, frame, c, Phase::LoadReport);

            // Balancing. The skip test replicates the manager's: both sides
            // track the zero-order streak (ours from `round_orders`), so a
            // short-circuited round has no Orders message to wait for.
            if cfg.balance.is_dynamic()
                && !cfg
                    .balance
                    .balancer_config()
                    .is_some_and(|b| balance::should_skip_round(idle_rounds[sys], frame, b))
            {
                let (orders, round_orders) = expect_msg!(ep, deadline, mgr, "calculator", c, frame,
                    Msg::Orders { orders, round_orders, .. } => (orders, round_orders), "Orders");
                idle_rounds[sys] =
                    if round_orders == 0 { idle_rounds[sys].saturating_add(1) } else { 0 };
                // Multi-pair strategies may have one donor serving both
                // sides; donations stage in order and move only after the
                // new domains are in force.
                let mut outgoing: Vec<(usize, Vec<Particle>)> = Vec::new();
                for o in &orders {
                    match *o {
                        balance::Order::Send { to, amount } => {
                            let step = donor_step(&mut stores[sys], to < c, amount);
                            ep.send(
                                mgr,
                                Msg::NewCut {
                                    system: setup.spec.id,
                                    boundary: c.min(to),
                                    cut: step.cut,
                                },
                            )?;
                            outgoing.push((to, step.donated));
                        }
                        balance::Order::Receive { .. } => {}
                    }
                }
                if !orders.is_empty() {
                    trace.record(frame, ProtocolEvent::PreparationOfStructures);
                }
                // Everyone receives the rebroadcast domains.
                let cuts = expect_msg!(ep, deadline, mgr, "calculator", c, frame,
                    Msg::Domains { cuts, .. } => cuts, "Domains");
                let dm =
                    DomainMap::from_cuts(Axis::X, cuts).map_err(|e| ProtocolError::Domain {
                        role: "calculator",
                        rank: c,
                        frame,
                        detail: format!("{e:?}"),
                    })?;
                if invariants::ENABLED {
                    invariants::check_partition(frame, sys, space_for(scene, cfg, sys), &dm)?;
                }
                let new_slice = dm.slice(c);
                domains[sys] = dm;
                trace.record(frame, ProtocolEvent::DefinitionOfLocalDomains);
                if stores[sys].slice() != new_slice {
                    let stray = stores[sys].reshape(new_slice);
                    stores[sys].extend(stray);
                }
                // Donations move only after the new domains are in force.
                let mut transferred = false;
                for (to, donated) in outgoing {
                    transferred = true;
                    ep.send(
                        to,
                        Msg::Particles { system: setup.spec.id, batch: donated, scale: 1.0 },
                    )?;
                }
                for o in &orders {
                    if let balance::Order::Receive { from } = *o {
                        transferred = true;
                        let batch = expect_msg!(ep, deadline, from, "calculator", c, frame,
                            Msg::Particles { batch, .. } => batch, "Particles");
                        stores[sys].extend(batch);
                    }
                }
                if transferred {
                    trace.record(frame, ProtocolEvent::LoadBalanceBetweenCalculators);
                }
            }
            mark(&mut rec, &mut last, &ep, frame, c, Phase::Balance);

            // Ship the frame to the image generator.
            let batch: Vec<Particle> = stores[sys].iter().copied().collect();
            ep.send(ig, Msg::RenderParticles { system: setup.spec.id, batch })?;
            trace.record(frame, ProtocolEvent::ParticlesToImageGenerator);
            mark(&mut rec, &mut last, &ep, frame, c, Phase::Ship);
        }
        if invariants::ENABLED {
            let events = trace.frame(frame);
            if figure2_passes(&events) != n_sys {
                return Err(ProtocolError::OrderBroken {
                    role: "calculator",
                    rank: c,
                    frame,
                    detail: format!("{events:?}"),
                });
            }
        }
        traffic_mark = flush_traffic(&mut rec, &ep, frame, traffic_mark);
    }
    Ok(rec)
}

pub(crate) fn manager_main(
    ep: ThreadEndpoint<Msg>,
    n: usize,
    scene: &Scene,
    cfg: &RunConfig,
    mut domains: Vec<DomainMap>,
    instrument: bool,
) -> Result<(Vec<FrameReport>, Recorder), ProtocolError> {
    let n_sys = scene.systems.len();
    let deadline = Duration::from_secs_f64(cfg.recv_timeout_secs);
    let mut round = 0u64;
    let mut idle_rounds = vec![0u32; n_sys];
    let mut frames = Vec::with_capacity(cfg.frames as usize);
    let mut last = ep.now();
    let mut trace = if invariants::ENABLED { Trace::enabled() } else { Trace::disabled() };
    let mut rec =
        if instrument { Recorder::enabled(n + 2, ClockKind::Wall) } else { Recorder::disabled() };
    let mut phase_mark = ep.now();
    let mut traffic_mark = ep.sent_stats();
    // Frame-loop scratch: creation staging reuses these across frames.
    let mut newborn: Vec<Particle> = Vec::new();
    let mut batches: Vec<Vec<Particle>> = (0..n).map(|_| Vec::new()).collect();

    for frame in 0..cfg.frames {
        let mut fr = FrameReport { frame, ..Default::default() };
        let mut orders_issued = 0u64;
        let mut skips_issued = 0u64;
        for sys in 0..n_sys {
            let spec = &scene.systems[sys].spec;
            // Creation.
            let mut rng = stream(cfg.seed, TAG_CREATE, frame, sys, 0);
            newborn.clear();
            if frame == 0 {
                newborn = spec.emit_initial(&mut rng);
            }
            newborn.extend((0..spec.emit_per_frame).map(|_| spec.emit_one(&mut rng)));
            for p in newborn.drain(..) {
                batches[domains[sys].owner_of(p.position.x)].push(p);
            }
            for (c, staged) in batches.iter_mut().enumerate() {
                // Same rationale as the calculator's exchange sends: drain
                // keeps the staging capacity, the message owns its batch.
                #[allow(clippy::drain_collect)]
                let batch: Vec<Particle> = staged.drain(..).collect();
                ep.send(c, Msg::Particles { system: spec.id, batch, scale: 1.0 })?;
                ep.send(c, Msg::EndOfTransmission { system: spec.id })?;
            }
            trace.record(frame, ProtocolEvent::ParticleCreation);
            mark(&mut rec, &mut phase_mark, &ep, frame, n, Phase::Compute);

            // Load reports.
            let mut loads = Vec::with_capacity(n);
            for c in 0..n {
                let (info, migrated) = expect_msg!(ep, deadline, c, "manager", n, frame,
                    Msg::Load { info, migrated, .. } => (info, migrated), "Load");
                fr.migrated += migrated as u64;
                fr.migration_bytes += (migrated * psa_core::WIRE_BYTES) as u64;
                loads.push(info);
            }
            let counts: Vec<f64> = loads.iter().map(|l| l.count as f64).collect();
            fr.imbalance = fr.imbalance.max(imbalance(&counts));
            trace.record(frame, ProtocolEvent::LoadInformation);
            mark(&mut rec, &mut phase_mark, &ep, frame, n, Phase::LoadReport);

            // Balancing. The threaded executor is manager-mediated for
            // every strategy: decentralized strategies reuse the same
            // decision function but their transfers still travel the
            // Orders/NewCut/Domains round-trip (the host threads share a
            // process; the decentralized modes' gossip topology is a
            // virtual-executor concern). The skip decision mirrors the
            // calculators': both sides derive the zero-order streak from
            // the same round history, so nobody blocks on a message the
            // other side never sends.
            if let Some(strategy) = balancers::strategy_for(&cfg.balance) {
                let bcfg = *cfg.balance.balancer_config().expect("dynamic mode carries a config");
                if balance::should_skip_round(idle_rounds[sys], frame, &bcfg) {
                    skips_issued += 1;
                    mark(&mut rec, &mut phase_mark, &ep, frame, n, Phase::Balance);
                    continue;
                }
                let speeds = vec![1.0; n]; // host threads are homogeneous
                let present: Vec<usize> = (0..n).collect();
                let mut transfers = if n >= 2 {
                    strategy.decide(&loads, &speeds, &present, round, &bcfg)
                } else {
                    Vec::new()
                };
                round += 1;
                idle_rounds[sys] =
                    if transfers.is_empty() { idle_rounds[sys].saturating_add(1) } else { 0 };
                debug_assert!(
                    balance::validate_round(&transfers, &loads, &present, strategy.multi_pair())
                        .is_ok(),
                    "{} produced an invalid round",
                    strategy.name()
                );
                // Same boundary order as the engine's execute_transfers, so
                // a multi-pair donor's sequential donations line up across
                // executors.
                transfers.sort_by_key(|t| t.donor.min(t.receiver));
                orders_issued += transfers.len() as u64;
                trace.record(frame, ProtocolEvent::LoadBalancingEvaluation);
                let round_orders = transfers.len() as u32;
                for c in 0..n {
                    ep.send(
                        c,
                        Msg::Orders {
                            system: spec.id,
                            orders: balance::orders_for(&transfers, c),
                            round_orders,
                        },
                    )?;
                }
                trace.record(frame, ProtocolEvent::LoadBalancingOrders);
                for t in &transfers {
                    let (boundary, cut) = expect_msg!(ep, deadline, t.donor, "manager", n, frame,
                        Msg::NewCut { boundary, cut, .. } => (boundary, cut), "NewCut");
                    domains[sys].move_cut(boundary, cut).map_err(|e| ProtocolError::Domain {
                        role: "manager",
                        rank: n,
                        frame,
                        detail: format!("{e:?}"),
                    })?;
                    fr.balanced += t.amount as u64;
                }
                if invariants::ENABLED {
                    invariants::check_partition(
                        frame,
                        sys,
                        space_for(scene, cfg, sys),
                        &domains[sys],
                    )?;
                }
                if !transfers.is_empty() {
                    trace.record(frame, ProtocolEvent::NewDimensionsAndDomains);
                }
                for c in 0..n {
                    ep.send(
                        c,
                        Msg::Domains { system: spec.id, cuts: domains[sys].cuts().to_vec() },
                    )?;
                }
            }
            mark(&mut rec, &mut phase_mark, &ep, frame, n, Phase::Balance);
        }
        if invariants::ENABLED {
            let events = trace.frame(frame);
            if figure2_passes(&events) != n_sys {
                return Err(ProtocolError::OrderBroken {
                    role: "manager",
                    rank: n,
                    frame,
                    detail: format!("{events:?}"),
                });
            }
        }
        let now = ep.now();
        fr.frame_time = now - last;
        last = now;
        if rec.is_enabled() {
            rec.add(frame, Counter::Migrated, fr.migrated);
            rec.add(frame, Counter::MigrationBytes, fr.migration_bytes);
            rec.add(frame, Counter::BalanceOrders, orders_issued);
            rec.add(frame, Counter::BalanceSkips, skips_issued);
            traffic_mark = flush_traffic(&mut rec, &ep, frame, traffic_mark);
        }
        frames.push(fr);
    }
    Ok((frames, rec))
}

pub(crate) fn image_generator_main(
    ep: ThreadEndpoint<Msg>,
    n: usize,
    scene: &Scene,
    cfg: &RunConfig,
    sink: Option<RenderSink>,
    instrument: bool,
) -> Result<(Vec<(u64, u64)>, Recorder), ProtocolError> {
    let n_sys = scene.systems.len();
    let deadline = Duration::from_secs_f64(cfg.recv_timeout_secs);
    let mut fb = sink.as_ref().map(|s| {
        let (w, h) = s.camera.viewport();
        Framebuffer::new(w, h)
    });
    let mut per_frame = Vec::with_capacity(cfg.frames as usize);
    let mut rec =
        if instrument { Recorder::enabled(n + 2, ClockKind::Wall) } else { Recorder::disabled() };
    let mut phase_mark = ep.now();

    for frame in 0..cfg.frames {
        let mut alive = 0u64;
        let mut hash = StateHash::new();
        if let (Some(fb), Some(s)) = (fb.as_mut(), sink.as_ref()) {
            fb.clear(s.background);
            render_objects(fb, &s.camera, &scene.objects);
        }
        for _sys in 0..n_sys {
            for c in 0..n {
                let batch = expect_msg!(ep, deadline, c, "image generator", n + 1, frame,
                    Msg::RenderParticles { batch, .. } => batch, "RenderParticles");
                alive += batch.len() as u64;
                hash.extend(batch.iter());
                if let (Some(fb), Some(s)) = (fb.as_mut(), sink.as_ref()) {
                    match s.streaks {
                        Some((len, steps)) => {
                            render_streaks(fb, &s.camera, &batch, &s.splat, len, steps);
                        }
                        None => {
                            render_particles(fb, &s.camera, &batch, &s.splat);
                        }
                    }
                }
            }
        }
        if let (Some(fb), Some(s)) = (fb.as_ref(), sink.as_ref()) {
            if let Some(dir) = &s.out_dir {
                std::fs::create_dir_all(dir).map_err(|e| ProtocolError::Render {
                    frame,
                    detail: format!("create {}: {e}", dir.display()),
                })?;
                let path = dir.join(frame_filename(&s.prefix, frame));
                write_ppm(fb, &path).map_err(|e| ProtocolError::Render {
                    frame,
                    detail: format!("write {}: {e}", path.display()),
                })?;
            }
        }
        // The whole IG frame — gathering batches, rasterizing, writing —
        // is the Render phase; the image generator takes part in no other.
        mark(&mut rec, &mut phase_mark, &ep, frame, n + 1, Phase::Render);
        per_frame.push((alive, hash.finish()));
    }
    Ok((per_frame, rec))
}

#[cfg(test)]
mod tests {
    use super::*;
    use psa_math::Vec3;

    #[test]
    fn new_cut_midpoint_low_side() {
        let donated = vec![Particle::at(Vec3::new(1.0, 0.0, 0.0))];
        let cut = donation_cut(true, &donated, Some((3.0, 9.0)), Interval::new(0.0, 10.0));
        assert_eq!(cut, 2.0);
    }

    #[test]
    fn new_cut_midpoint_high_side() {
        let donated = vec![Particle::at(Vec3::new(8.0, 0.0, 0.0))];
        let cut = donation_cut(false, &donated, Some((1.0, 6.0)), Interval::new(0.0, 10.0));
        assert_eq!(cut, 7.0);
    }

    #[test]
    fn new_cut_empty_donation_keeps_edges() {
        assert_eq!(donation_cut(true, &[], Some((1.0, 2.0)), Interval::new(0.0, 10.0)), 0.0);
        assert_eq!(donation_cut(false, &[], None, Interval::new(0.0, 10.0)), 10.0);
    }

    #[test]
    fn new_cut_high_side_tie_uses_next_distinct_value() {
        // kept_max == donated_min (an emission cohort with identical
        // positions was split): the cut must be strictly above kept_max.
        let donated =
            vec![Particle::at(Vec3::new(6.0, 0.0, 0.0)), Particle::at(Vec3::new(8.0, 0.0, 0.0))];
        let cut = donation_cut(false, &donated, Some((1.0, 6.0)), Interval::new(0.0, 10.0));
        assert!(cut > 6.0, "cut {cut} must exceed kept_max");
        assert_eq!(cut, 8.0, "smallest strictly-greater donated value");
    }

    #[test]
    fn new_cut_high_side_full_tie_degenerates_to_old_boundary() {
        let donated = vec![Particle::at(Vec3::new(6.0, 0.0, 0.0))];
        let cut = donation_cut(false, &donated, Some((1.0, 6.0)), Interval::new(0.0, 10.0));
        assert_eq!(cut, 10.0, "no separating cut exists; boundary unchanged");
    }

    #[test]
    fn new_cut_total_donation_takes_whole_slice() {
        let donated = vec![Particle::at(Vec3::new(5.0, 0.0, 0.0))];
        // donating low with nothing kept: slice collapses to its high edge
        assert_eq!(donation_cut(true, &donated, None, Interval::new(0.0, 10.0)), 10.0);
        assert_eq!(donation_cut(false, &donated, None, Interval::new(0.0, 10.0)), 0.0);
    }

    #[test]
    fn cut_span_adjacent_matches_single_move() {
        let mut a = DomainMap::split_even(Interval::new(0.0, 10.0), AXIS, 4);
        let mut b = a.clone();
        apply_cut_span(&mut a, 1, 2, 4.0).unwrap();
        b.move_cut(1, 4.0).unwrap();
        assert_eq!(a.cuts(), b.cuts());
        // And the reverse orientation hits the same boundary.
        let mut c = DomainMap::split_even(Interval::new(0.0, 10.0), AXIS, 4);
        apply_cut_span(&mut c, 2, 1, 4.0).unwrap();
        assert_eq!(a.cuts(), c.cuts());
    }

    #[test]
    fn cut_span_rides_over_collapsed_dead_slices() {
        // Ranks 1 and 2 are dead: their slices sit at zero width on rank
        // 0's high edge (2.5) and rank 3 absorbed their space.
        let mut dm = DomainMap::from_cuts(AXIS, vec![0.0, 2.5, 2.5, 2.5, 7.5, 10.0]).unwrap();
        // Donor 3 donates low toward receiver 0: every boundary in the gap
        // must land on the new cut.
        apply_cut_span(&mut dm, 3, 0, 5.0).unwrap();
        assert_eq!(dm.cuts(), &[0.0, 5.0, 5.0, 5.0, 7.5, 10.0]);
        // And the upward direction from the low side.
        let mut dm2 = DomainMap::from_cuts(AXIS, vec![0.0, 2.5, 2.5, 2.5, 7.5, 10.0]).unwrap();
        apply_cut_span(&mut dm2, 0, 3, 1.0).unwrap();
        assert_eq!(dm2.cuts(), &[0.0, 1.0, 1.0, 1.0, 7.5, 10.0]);
    }
}
