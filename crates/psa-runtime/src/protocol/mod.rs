//! The shared Figure-2 protocol implementation.
//!
//! Every executor — sequential and threaded in this crate, and the
//! virtual-time simulator in `psa-desim` — drives the *same*
//! frame protocol (creation → addition → calculus → exchange → loads →
//! balance → ship → render). The module is split by role:
//!
//! * `calculator.rs` and `manager.rs` hold the **role cores**: a role's
//!   state and every transition on it, written once, with no transport,
//!   clock or recorder in them.
//! * `engine.rs` ([`Engine`]) and `spmd.rs` (the role bodies the threaded
//!   executor spawns) are the **drivers**: they own the choreography — who
//!   sends and receives what, in which order, what is charged, which trace
//!   events are recorded — and call the cores for everything else. The
//!   engine charges virtual cost *between* receives and link occupancy
//!   depends on the global send order, so the order of IO cannot be
//!   shared; the state machine under it can.
//! * This file keeps what both sides need: the [`Fabric`] seam, the seed →
//!   RNG derivation (`stream`; a copy that drifted would silently fork the
//!   particle trajectories), the balance short-circuit's streak counter and
//!   the Figure-2 order check both drivers run every frame
//!   (`check_figure2`).
//!
//! The exchange phase supports two fan-outs ([`ExchangeMode`]): the paper's
//! dense every-pair pattern (Figure 2 verbatim), and a sparse pattern that
//! only ships non-empty batches and drains exactly the queued senders — the
//! difference between O(n²) and O(migrants) messages per frame, which is
//! what lets the virtual-time executor sweep 1,024 ranks.
//!
//! [`ExchangeMode`]: crate::config::ExchangeMode

use cluster_sim::Placement;
use netsim::{FailedSend, TrafficStats, TransportError};
use psa_core::Particle;
use psa_math::{Axis, Interval, Rng64};

use crate::balance;
use crate::checkpoint::FabricCheckpoint;
use crate::config::{BalanceMode, RunConfig, SpaceMode};
use crate::msg::{Msg, ProtocolError};
use crate::scene::Scene;
use crate::trace::Trace;

mod calculator;
mod engine;
mod manager;
pub(crate) mod spmd;

pub use calculator::donation_cut;
pub use engine::Engine;

/// RNG stream tags (see [`stream`]).
pub(crate) const TAG_CREATE: u64 = 0xC0;
pub(crate) const TAG_ACTIONS: u64 = 0xAC;

/// The decomposition axis (paper: one axis of the plane or space).
pub(crate) const AXIS: Axis = Axis::X;

/// Sub-domain buckets per calculator per system (paper §4 storage).
pub(crate) const BUCKETS: usize = 8;

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

/// Drain a staging buffer into the exact-sized batch a message will own.
/// Not `mem::take`: draining keeps the buffer's warmed capacity, so the
/// steady-state frame loop stages without allocating.
#[expect(clippy::drain_collect, reason = "the drain keeps the buffer's warmed capacity")]
pub(crate) fn take_batch(staged: &mut Vec<Particle>) -> Vec<Particle> {
    staged.drain(..).collect()
}

/// The frame's recorded events must make `passes` Figure-2 passes — one
/// per system, in both drivers. Reads the trace's pass tally and starts
/// it over for the next frame.
pub(crate) fn check_figure2(
    trace: &mut Trace,
    frame: u64,
    passes: usize,
    role: &'static str,
    rank: usize,
) -> Result<(), ProtocolError> {
    let made = trace.take_passes();
    if made != passes {
        let events = trace.frame(frame);
        let detail = format!("{made} passes for {passes}; logged events {events:?}");
        return Err(ProtocolError::OrderBroken { role, rank, frame, detail });
    }
    Ok(())
}

pub(crate) fn space_for(scene: &Scene, cfg: &RunConfig, sys: usize) -> Interval {
    match cfg.space {
        SpaceMode::Finite => scene.systems[sys].spec.space,
        SpaceMode::Infinite => Interval::INFINITE,
    }
}

/// One system's zero-order streak behind the balance phase's short-circuit
/// ([`balance::should_skip_round`]). The manager and every calculator hold
/// one per system and feed it the same `round_orders` history (the manager
/// from its own decisions, a calculator from the total each `Orders`
/// carries), so both sides agree on which rounds have no `Orders` to wait
/// for.
#[derive(Clone, Copy, Default)]
pub(crate) struct SkipStreak(pub(crate) u32);

impl SkipStreak {
    /// Is this system's round of `frame` short-circuited? Never under
    /// static balancing (there is no round to skip).
    pub(crate) fn skips(self, frame: u64, mode: &BalanceMode) -> bool {
        mode.balancer_config().is_some_and(|b| balance::should_skip_round(self.0, frame, b))
    }

    /// Record an evaluated round that decided `round_orders` transfers.
    pub(crate) fn note(&mut self, round_orders: u32) {
        self.0 = if round_orders == 0 { self.0.saturating_add(1) } else { 0 };
    }
}

/// What the [`Engine`] needs from a simulated message fabric: directed
/// sends and receives, per-rank virtual clocks, and the fault-injection
/// queries the degraded-mode protocol consults. A directed link is a FIFO:
/// messages from one sender to one receiver arrive in send order, and no
/// order is defined across links. Implemented by `psa-desim`'s
/// `EventFabric` (one FIFO inbox per receiving rank over the
/// `netsim::WireState` timing arithmetic); the trait is the seam that
/// keeps the protocol crate free of the simulator crate.
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
    /// deterministically). A checkpoint shaped for another fabric is
    /// refused with a description before anything is written.
    fn load_fabric(&mut self, ck: &FabricCheckpoint) -> Result<(), String>;
}

#[cfg(test)]
mod tests {
    use super::manager::Manager;
    use super::*;
    use psa_core::DomainMap;
    use psa_math::Vec3;

    /// A frame recorded out of Figure-2 order fails the check typed, in
    /// every build, and the check starts the next frame's tally afresh.
    #[test]
    fn an_out_of_order_frame_is_order_broken() {
        use crate::trace::ProtocolEvent::{AdditionToLocalSet, Calculus, ParticleExchange};
        let mut trace = Trace::disabled();
        for e in [Calculus, AdditionToLocalSet, ParticleExchange] {
            trace.record(3, e);
        }
        match check_figure2(&mut trace, 3, 1, "calculator", 1) {
            Err(ProtocolError::OrderBroken { role: "calculator", rank: 1, frame: 3, detail }) => {
                assert!(detail.starts_with("2 passes for 1"), "{detail}");
            }
            other => panic!("expected OrderBroken, got {other:?}"),
        }
        for e in [AdditionToLocalSet, Calculus, ParticleExchange] {
            trace.record(4, e);
        }
        assert_eq!(check_figure2(&mut trace, 4, 1, "calculator", 1), Ok(()));
    }

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

    /// The manager's cuts for one system after applying `(donor, receiver,
    /// cut)` to `dm`.
    fn cut_span(dm: DomainMap, donor: usize, receiver: usize, cut: f32) -> Vec<f32> {
        let mut m = Manager::new(vec![dm], Vec::new(), 0, 1.0);
        m.apply_cut(0, donor, receiver, cut).unwrap();
        m.domains(0).cuts().to_vec()
    }

    #[test]
    fn cut_span_adjacent_matches_single_move() {
        let even = DomainMap::split_even(Interval::new(0.0, 10.0), AXIS, 4);
        let mut b = even.clone();
        b.move_cut(1, 4.0).unwrap();
        assert_eq!(cut_span(even.clone(), 1, 2, 4.0), b.cuts());
        // And the reverse orientation hits the same boundary.
        assert_eq!(cut_span(even, 2, 1, 4.0), b.cuts());
    }

    #[test]
    fn cut_span_rides_over_collapsed_dead_slices() {
        // Ranks 1 and 2 are dead: their slices sit at zero width on rank
        // 0's high edge (2.5) and rank 3 absorbed their space.
        let dm = DomainMap::from_cuts(AXIS, vec![0.0, 2.5, 2.5, 2.5, 7.5, 10.0]).unwrap();
        // Donor 3 donates low toward receiver 0: every boundary in the gap
        // must land on the new cut.
        assert_eq!(cut_span(dm.clone(), 3, 0, 5.0), &[0.0, 5.0, 5.0, 5.0, 7.5, 10.0]);
        // And the upward direction from the low side.
        assert_eq!(cut_span(dm, 0, 3, 1.0), &[0.0, 1.0, 1.0, 1.0, 7.5, 10.0]);
    }
}
