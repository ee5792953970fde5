//! Deterministic fault injection for the virtual and threaded fabrics.
//!
//! A [`FaultPlan`] is a *plan*, not a random process: it is built once from
//! a seed (always through `psa-math`'s splittable [`Rng64`] streams, never
//! ambient RNG) and then replayed. Every stochastic decision the injector
//! makes — drop this send? how much jitter? — comes from a per-directed-link
//! child stream keyed by `(plan seed, from, to)`, so the same plan wrapped
//! around the same deterministic run produces byte-identical perturbations.
//! This is the FoundationDB-style discipline: faults are part of the seed.
//!
//! Both fabrics execute a plan through a [`PlanInjector`], consulted on
//! every send, and differ in what they do with its decisions:
//!
//! * the virtual fabric in `psa-desim` charges fault costs as **virtual
//!   time** (extra delivery delay, timed-out waits), so faulty runs replay
//!   bit-identically;
//! * [`FaultyThreadEndpoint`] injects **real** delays and errors on the
//!   thread fabric (used by unit tests and the threaded executor's
//!   hardening tests; real time is inherently non-replayable, so the chaos
//!   matrix gates on the virtual path).

// psa-verify: allow(index-panic) — the plan's `ranks` table is sized by
// the constructor from the cluster's rank count, and every accessor takes
// its index from the executors, which address ranks 0..ranks; a wire
// payload never chooses an index.
use std::collections::BTreeMap;
use std::time::Duration;

use psa_math::Rng64;

use cluster_sim::NetworkModel;

use crate::thread_net::{ThreadEndpoint, TransportError};
use crate::WireSize;

/// Stream salt separating fault draws from every simulation stream.
const TAG_FAULT: u64 = 0xFA_17;

/// Per-calculator perturbations.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RankFault {
    /// CPU throttle: compute on this rank takes `slowdown` × as long
    /// (1.0 = healthy; the paper's heterogeneity knob turned hostile).
    pub slowdown: f64,
    /// One-shot stall: at frame `.0`, the rank freezes for `.1` virtual
    /// seconds before doing anything else.
    pub stall: Option<(u64, f64)>,
    /// Fail-stop crash: from this frame on, the rank neither computes nor
    /// sends nor receives. `None` = never crashes.
    pub crash_at: Option<u64>,
}

impl Default for RankFault {
    fn default() -> Self {
        RankFault { slowdown: 1.0, stall: None, crash_at: None }
    }
}

impl RankFault {
    /// A healthy rank (identity perturbation).
    pub fn healthy() -> Self {
        Self::default()
    }

    pub fn is_healthy(&self) -> bool {
        self.slowdown == 1.0 && self.stall.is_none() && self.crash_at.is_none()
    }
}

/// Per-directed-link perturbations.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LinkFault {
    /// Probability a send on this link fails transiently (retriable).
    pub drop_prob: f64,
    /// Probability a delivered message is jittered.
    pub jitter_prob: f64,
    /// Maximum jitter added to a jittered delivery, seconds.
    pub max_jitter: f64,
    /// Fixed extra latency on every delivery, seconds.
    pub extra_latency: f64,
    /// Extra seconds per payload byte (bandwidth degradation).
    pub per_byte_delay: f64,
}

impl LinkFault {
    /// A link degraded relative to `model`: `bw_scale` × less bandwidth,
    /// `lat_scale` × more latency (both ≥ 1.0). Expressed as additive
    /// delays so the injector stays independent of the fabric's own cost
    /// accounting.
    pub fn degraded(model: &NetworkModel, bw_scale: f64, lat_scale: f64) -> Self {
        debug_assert!(bw_scale >= 1.0 && lat_scale >= 1.0);
        LinkFault {
            drop_prob: 0.0,
            jitter_prob: 0.0,
            max_jitter: 0.0,
            extra_latency: model.latency * (lat_scale - 1.0),
            per_byte_delay: (bw_scale - 1.0) / model.bandwidth,
        }
    }

    /// A lossy link: each send fails transiently with probability `p`.
    pub fn lossy(p: f64) -> Self {
        debug_assert!((0.0..1.0).contains(&p));
        LinkFault { drop_prob: p, ..Default::default() }
    }

    /// A jittery link: each delivery is delayed by up to `max_jitter`
    /// seconds with probability `p`.
    pub fn jittery(p: f64, max_jitter: f64) -> Self {
        debug_assert!((0.0..=1.0).contains(&p) && max_jitter >= 0.0);
        LinkFault { jitter_prob: p, max_jitter, ..Default::default() }
    }

    pub fn is_healthy(&self) -> bool {
        self == &LinkFault::default()
    }
}

/// The full description of what goes wrong in a run: one [`RankFault`] per
/// rank, the [`LinkFault`] of every directed rank pair, and the seed the
/// injector's stochastic draws derive from. Link faults are stored as one
/// value for all links plus the links that differ from it, so a plan costs
/// O(ranks) until someone perturbs individual links.
///
/// Equality is structural, which is what the reproducibility tests lean on:
/// same seed + same construction ⇒ identical plan ⇒ identical faulty run.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultPlan {
    /// Seed for the injector's per-link draw streams.
    pub seed: u64,
    ranks: Vec<RankFault>,
    /// The fault of every link `links` does not name.
    all_links: LinkFault,
    /// Links set apart from `all_links`, keyed `(from, to)`.
    links: BTreeMap<(usize, usize), LinkFault>,
}

impl FaultPlan {
    /// A quiet plan over `ranks` ranks: nothing fails.
    pub fn none(seed: u64, ranks: usize) -> Self {
        FaultPlan {
            seed,
            ranks: vec![RankFault::default(); ranks],
            all_links: LinkFault::default(),
            links: BTreeMap::new(),
        }
    }

    pub fn ranks(&self) -> usize {
        self.ranks.len()
    }

    pub fn rank(&self, r: usize) -> &RankFault {
        &self.ranks[r]
    }

    pub fn rank_mut(&mut self, r: usize) -> &mut RankFault {
        &mut self.ranks[r]
    }

    pub fn link(&self, from: usize, to: usize) -> &LinkFault {
        self.links.get(&(from, to)).unwrap_or(&self.all_links)
    }

    pub fn link_mut(&mut self, from: usize, to: usize) -> &mut LinkFault {
        self.links.entry((from, to)).or_insert(self.all_links)
    }

    /// Apply `fault` to every directed link touching `rank` (both ways).
    pub fn set_links_of(&mut self, rank: usize, fault: LinkFault) {
        for other in 0..self.ranks() {
            if other != rank {
                *self.link_mut(rank, other) = fault;
                *self.link_mut(other, rank) = fault;
            }
        }
    }

    /// Apply `fault` to every directed link in the fabric.
    pub fn set_all_links(&mut self, fault: LinkFault) {
        self.all_links = fault;
        self.links.clear();
    }

    /// True when the plan perturbs nothing.
    pub fn is_quiet(&self) -> bool {
        self.ranks.iter().all(RankFault::is_healthy)
            && self.all_links.is_healthy()
            && self.links.values().all(LinkFault::is_healthy)
    }
}

/// What the injector decided about one send.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum SendFate {
    /// Deliver, with this much extra delay (0.0 = untouched).
    Deliver { extra_delay: f64 },
    /// Reject transiently; the caller may retry.
    FailTransient,
}

/// Executes a [`FaultPlan`]: every probabilistic decision draws from a
/// dedicated per-directed-link `Rng64` stream derived from the plan seed,
/// so two injectors built from equal plans make identical decisions in
/// identical call order. Both fabric adapters consult one: the virtual
/// fabric in `psa-desim` and [`FaultyThreadEndpoint`].
///
/// [`on_send`](Self::on_send) may consume entropy (it takes `&mut self`);
/// the read-only queries never do, so call order of the queries cannot
/// perturb a replay.
#[derive(Clone, Debug)]
pub struct PlanInjector {
    plan: FaultPlan,
    /// Draw streams of the links that have drawn, keyed `(from, to)`. A
    /// link's stream is a function of `(plan seed, from, to)` alone, so it
    /// is created at the link's first draw.
    streams: BTreeMap<(usize, usize), Rng64>,
}

/// Uniform f64 in `[0, 1)` with 53 mantissa bits (probabilities need more
/// resolution than the f32 `unit()` offers).
fn unit64(rng: &mut Rng64) -> f64 {
    (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

impl PlanInjector {
    pub fn new(plan: FaultPlan) -> Self {
        PlanInjector { plan, streams: BTreeMap::new() }
    }

    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Next uniform draw of link `(from, to)`.
    fn draw(&mut self, from: usize, to: usize) -> f64 {
        let seed = self.plan.seed;
        unit64(self.streams.entry((from, to)).or_insert_with(|| {
            Rng64::new(seed).split(TAG_FAULT).split(from as u64).split(to as u64)
        }))
    }

    /// Decide the fate of a `bytes`-byte send from `from` to `to`.
    pub fn on_send(&mut self, from: usize, to: usize, bytes: u64) -> SendFate {
        let link = *self.plan.link(from, to);
        if link.is_healthy() {
            return SendFate::Deliver { extra_delay: 0.0 };
        }
        if link.drop_prob > 0.0 && self.draw(from, to) < link.drop_prob {
            return SendFate::FailTransient;
        }
        let mut delay = link.extra_latency + link.per_byte_delay * bytes as f64;
        if link.jitter_prob > 0.0 && self.draw(from, to) < link.jitter_prob {
            delay += self.draw(from, to) * link.max_jitter;
        }
        SendFate::Deliver { extra_delay: delay }
    }

    /// CPU throttle for `rank` (compute takes this × as long; 1.0 = none).
    pub fn compute_factor(&self, rank: usize) -> f64 {
        self.plan.rank(rank).slowdown
    }

    /// One-shot stall charged to `rank` at `frame`, seconds.
    pub fn stall_seconds(&self, rank: usize, frame: u64) -> f64 {
        match self.plan.rank(rank).stall {
            Some((at, secs)) if at == frame => secs,
            _ => 0.0,
        }
    }

    /// Frame at which `rank` fail-stops, if ever.
    pub fn crash_frame(&self, rank: usize) -> Option<u64> {
        self.plan.rank(rank).crash_at
    }

    /// The injector's draw-stream cursors, for checkpointing, in the
    /// encoding [`restore_stream_states`](Self::restore_stream_states)
    /// reads back: one `(from, to, state)` triple per link that has drawn.
    /// The plan itself is construction-time configuration and is *not*
    /// captured.
    pub fn stream_states(&self) -> Vec<u64> {
        self.streams
            .iter()
            .flat_map(|(&(from, to), s)| [from as u64, to as u64, s.state()])
            .collect()
    }

    /// Rewind the injector's draw streams to previously captured cursors.
    /// Accepts what [`stream_states`](Self::stream_states) produced for an
    /// injector over the same plan; a list that is not whole `(from, to,
    /// state)` triples is refused with a description, and the streams are
    /// left as they were.
    ///
    /// Replaces the stream map: a link that first drew after the capture
    /// goes back to having no stream, and starts over at its next draw.
    pub fn restore_stream_states(&mut self, states: &[u64]) -> Result<(), String> {
        let triples = states.chunks_exact(3);
        if !triples.remainder().is_empty() {
            return Err(format!(
                "{} stream words are not whole (from, to, state) triples",
                states.len()
            ));
        }
        self.streams = triples
            .filter_map(|triple| match *triple {
                [from, to, state] => Some(((from as usize, to as usize), Rng64::new(state))),
                _ => None,
            })
            .collect();
        Ok(())
    }
}

/// Retry/timeout policy the protocol-hardening layer runs under. All times
/// are **virtual seconds** on the deterministic fabric (the threaded
/// executor maps its own wall-clock deadline from `RunConfig`).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultPolicy {
    /// Total attempts per logical send (first try + retries).
    pub send_attempts: u32,
    /// Backoff charged before retry `k` is `backoff × 2^k` seconds.
    pub backoff: f64,
    /// Virtual seconds a timed-out deterministic receive charges.
    pub recv_wait: f64,
    /// Consecutive missed load reports before a rank is declared dead.
    pub dead_after: u32,
}

impl Default for FaultPolicy {
    fn default() -> Self {
        FaultPolicy { send_attempts: 6, backoff: 50.0e-6, recv_wait: 2.0e-3, dead_after: 3 }
    }
}

/// A send the injector rejected: the message comes back to the caller so a
/// retry needs no `Clone`.
#[derive(Debug)]
pub struct FailedSend<M> {
    pub msg: M,
    pub error: TransportError,
}

/// [`ThreadEndpoint`] with a [`PlanInjector`] in front of every send.
/// Delays here are *real* (the calling thread sleeps), so this adapter is
/// for hardening tests, not for replay-gated determinism.
#[derive(Debug)]
pub struct FaultyThreadEndpoint<M> {
    ep: ThreadEndpoint<M>,
    inj: PlanInjector,
}

impl<M: Send + WireSize> FaultyThreadEndpoint<M> {
    pub fn new(ep: ThreadEndpoint<M>, inj: PlanInjector) -> Self {
        FaultyThreadEndpoint { ep, inj }
    }

    pub fn rank(&self) -> usize {
        self.ep.rank()
    }

    pub fn ranks(&self) -> usize {
        self.ep.ranks()
    }

    pub fn send(&mut self, to: usize, msg: M) -> Result<(), FailedSend<M>> {
        let rank = self.ep.rank();
        match self.inj.on_send(rank, to, msg.wire_bytes()) {
            SendFate::Deliver { extra_delay } => {
                if extra_delay > 0.0 {
                    #[expect(
                        clippy::disallowed_methods,
                        reason = "a real delay on the real-time fabric"
                    )]
                    // psa-verify: allow(nondet-taint) — the delay moves wall time, never state
                    std::thread::sleep(Duration::from_secs_f64(extra_delay));
                }
                self.ep.send_reclaim(to, msg).map_err(|(msg, error)| FailedSend { msg, error })
            }
            SendFate::FailTransient => {
                Err(FailedSend { msg, error: TransportError::SendFailed { rank, peer: to } })
            }
        }
    }

    /// Bounded receive — the only receive this adapter offers, so code
    /// written against it cannot hang on a lost peer.
    pub fn recv_deadline(&self, from: usize, timeout: Duration) -> Result<M, TransportError> {
        self.ep.recv_deadline(from, timeout)
    }

    pub fn try_recv(&self, from: usize) -> Result<Option<M>, TransportError> {
        self.ep.try_recv(from)
    }

    pub fn now(&self) -> f64 {
        self.ep.now()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ThreadNet;
    use cluster_sim::NetworkModel;

    fn lossy_plan(p: f64) -> FaultPlan {
        let mut plan = FaultPlan::none(7, 2);
        *plan.link_mut(0, 1) = LinkFault::lossy(p);
        plan
    }

    #[test]
    fn equal_plans_make_identical_decisions() {
        let mut a = PlanInjector::new(lossy_plan(0.5));
        let mut b = PlanInjector::new(lossy_plan(0.5));
        let fates_a: Vec<_> = (0..256).map(|i| a.on_send(0, 1, i)).collect();
        let fates_b: Vec<_> = (0..256).map(|i| b.on_send(0, 1, i)).collect();
        assert_eq!(fates_a, fates_b);
        assert!(fates_a.contains(&SendFate::FailTransient));
        assert!(fates_a.iter().any(|f| matches!(f, SendFate::Deliver { .. })));
    }

    #[test]
    fn different_seeds_make_different_decisions() {
        let mut plan_b = lossy_plan(0.5);
        plan_b.seed = 8;
        let mut a = PlanInjector::new(lossy_plan(0.5));
        let mut b = PlanInjector::new(plan_b);
        let fates_a: Vec<_> = (0..256).map(|_| a.on_send(0, 1, 100)).collect();
        let fates_b: Vec<_> = (0..256).map(|_| b.on_send(0, 1, 100)).collect();
        assert_ne!(fates_a, fates_b);
    }

    #[test]
    fn healthy_links_draw_no_entropy() {
        // A quiet link must not consume stream state: fault decisions on
        // other links stay identical whether or not quiet sends interleave.
        let mut a = PlanInjector::new(lossy_plan(0.5));
        let mut b = PlanInjector::new(lossy_plan(0.5));
        let fa: Vec<_> = (0..64)
            .map(|_| {
                let _ = a.on_send(1, 0, 9); // healthy direction
                a.on_send(0, 1, 9)
            })
            .collect();
        let fb: Vec<_> = (0..64).map(|_| b.on_send(0, 1, 9)).collect();
        assert_eq!(fa, fb);
    }

    #[test]
    fn degraded_link_delay_math() {
        let model = NetworkModel::myrinet();
        let f = LinkFault::degraded(&model, 4.0, 3.0);
        // 3× latency = base + 2× extra; 4× slower wire = 3 extra
        // occupancies per byte.
        assert!((f.extra_latency - model.latency * 2.0).abs() < 1e-15);
        assert!((f.per_byte_delay - 3.0 / model.bandwidth).abs() < 1e-15);
        let mut inj = PlanInjector::new({
            let mut p = FaultPlan::none(1, 2);
            *p.link_mut(0, 1) = f;
            p
        });
        match inj.on_send(0, 1, 1000) {
            SendFate::Deliver { extra_delay } => {
                let want = f.extra_latency + f.per_byte_delay * 1000.0;
                assert!((extra_delay - want).abs() < 1e-15);
            }
            SendFate::FailTransient => panic!("degraded links do not drop"),
        }
    }

    #[test]
    fn stall_and_crash_lookups() {
        let mut plan = FaultPlan::none(0, 3);
        plan.rank_mut(1).stall = Some((5, 2.0));
        plan.rank_mut(2).crash_at = Some(20);
        let inj = PlanInjector::new(plan);
        assert_eq!(inj.stall_seconds(1, 4), 0.0);
        assert_eq!(inj.stall_seconds(1, 5), 2.0);
        assert_eq!(inj.stall_seconds(1, 6), 0.0);
        assert_eq!(inj.crash_frame(2), Some(20));
        assert_eq!(inj.crash_frame(0), None);
    }

    #[test]
    fn faulty_thread_endpoint_rejects_transiently() {
        let mut plan = FaultPlan::none(3, 2);
        *plan.link_mut(0, 1) = LinkFault::lossy(0.999_999);
        let mut eps = ThreadNet::build::<Vec<u8>>(2).into_iter();
        let e0 = eps.next().unwrap();
        let _e1 = eps.next().unwrap();
        let mut faulty = FaultyThreadEndpoint::new(e0, PlanInjector::new(plan));
        let failed = faulty.send(1, vec![1, 2, 3]).expect_err("p≈1 must drop");
        assert_eq!(failed.msg, vec![1, 2, 3]);
        assert_eq!(failed.error, TransportError::SendFailed { rank: 0, peer: 1 });
    }

    #[test]
    fn stream_states_checkpoint_and_resume_fates_exactly() {
        let plan = || {
            let mut plan = lossy_plan(0.5);
            *plan.link_mut(1, 0) = LinkFault::jittery(0.5, 1e-3);
            plan
        };
        let fates = |inj: &mut PlanInjector| -> Vec<_> {
            (0..64).flat_map(|i| [inj.on_send(0, 1, i), inj.on_send(1, 0, i)]).collect()
        };
        let mut live = PlanInjector::new(plan());
        for i in 0..37 {
            let _ = live.on_send(0, 1, i);
        }
        let states = live.stream_states();
        assert_eq!(states.len(), 3, "one (from, to, state) triple: only (0, 1) has drawn");
        let tail = fates(&mut live.clone());
        // Run ahead on the old link, draw for the first time on (1, 0),
        // then rewind: the fates from the captured cursor must repeat
        // bit-for-bit, so (1, 0) has to start over, not carry on.
        assert_eq!(fates(&mut live), tail);
        assert_eq!(live.stream_states().len(), 6);
        // A list that is not whole triples is refused and changes nothing.
        let ahead = live.stream_states();
        assert!(live.restore_stream_states(&states[..2]).is_err());
        assert_eq!(live.stream_states(), ahead);
        live.restore_stream_states(&states).expect("whole triples");
        assert_eq!(live.stream_states(), states);
        assert_eq!(fates(&mut live), tail);
    }

    #[test]
    fn quiet_plan_and_injector_hold_no_per_link_state() {
        let mut plan = FaultPlan::none(3, 1026);
        assert!(plan.links.is_empty());
        // Added latency perturbs a link without ever drawing.
        plan.link_mut(0, 1).extra_latency = 0.5;
        assert_eq!(plan.links.len(), 1);
        let mut inj = PlanInjector::new(plan);
        assert_eq!(inj.on_send(0, 1, 64), SendFate::Deliver { extra_delay: 0.5 });
        for to in 2..1026 {
            assert_eq!(inj.on_send(0, to, 64), SendFate::Deliver { extra_delay: 0.0 });
        }
        assert!(inj.streams.is_empty());
        assert!(inj.stream_states().is_empty());
    }

    #[test]
    fn link_settings_layer_in_call_order() {
        let mut p = FaultPlan::none(0, 5);
        p.set_all_links(LinkFault::lossy(0.1));
        p.set_links_of(2, LinkFault::lossy(0.2));
        p.link_mut(2, 3).drop_prob = 0.3;
        p.link_mut(0, 1).extra_latency = 0.5;
        assert_eq!(p.link(0, 4).drop_prob, 0.1);
        assert_eq!((p.link(2, 4).drop_prob, p.link(4, 2).drop_prob), (0.2, 0.2));
        assert_eq!((p.link(2, 3).drop_prob, p.link(3, 2).drop_prob), (0.3, 0.2));
        // `link_mut` on an untouched link edits a copy of the all-links fault.
        assert_eq!(*p.link(0, 1), LinkFault { extra_latency: 0.5, ..LinkFault::lossy(0.1) });
        // `set_all_links` means all: it overrides every earlier setting.
        p.set_all_links(LinkFault::default());
        assert!(p.is_quiet());
        assert!(p.link(2, 3).is_healthy());
    }

    #[test]
    fn quiet_plan_is_quiet() {
        assert!(FaultPlan::none(0, 4).is_quiet());
        let mut p = FaultPlan::none(0, 4);
        p.rank_mut(2).crash_at = Some(1);
        assert!(!p.is_quiet());
        let mut q = FaultPlan::none(0, 4);
        q.set_links_of(1, LinkFault::lossy(0.1));
        assert!(!q.is_quiet());
        assert_eq!(q.link(1, 3).drop_prob, 0.1);
        assert_eq!(q.link(3, 1).drop_prob, 0.1);
        assert_eq!(q.link(0, 2).drop_prob, 0.0);
    }
}
