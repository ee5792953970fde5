//! The virtual message fabric: one FIFO per receiving rank.
//!
//! [`EventFabric`] implements the shared engine's [`Fabric`] contract for
//! an engine that interleaves the ranks itself. Every accepted send is
//! stamped with the exact delivery time the [`WireState`] cost model
//! charged (sender CPU, NIC/medium occupancy, topology-aware latency,
//! injected perturbation) and pushed onto its receiver's inbox; a receive
//! takes the oldest message from the named sender and moves the receiver's
//! clock up to the stamp. There is no global event order: virtual time
//! lives in the per-rank clocks, and the only ordering a result can depend
//! on is send order within a link.
//!
//! ## Link order
//!
//! A link delivers in send order — not in delivery-stamp order — so
//! jittered messages cannot reorder within a link: each link behaves as a
//! plain queue, which is the model the golden fingerprints in
//! `tests/event_parity.rs` were frozen under. An inbox interleaves all of
//! its rank's incoming links in send order, so the oldest entry from a
//! sender is exactly that link's front.
//!
//! ## Why it scales
//!
//! The fabric holds one inbox per receiving rank — a FIFO of
//! `(from, deliver_at, msg)` — and no per-link queue: a dense `ranks²`
//! queue table is ~34 MB of empty headers at 1,024 ranks, while 1,026
//! empty inboxes are 1,026 empty ring buffers. A send is a push onto the
//! receiver's back. A receive scans from the front for its sender's oldest
//! entry, and every sweep the engine makes (`Load` and
//! `RenderBatch` gathers, creation, `Orders`, `Domains`, sparse exchange)
//! sends in ascending rank order and receives in the same order, so that
//! entry is the front: a manager that hears from 1,024 calculators pops
//! one contiguous queue, with no search and no per-sender queue to find.
//! The fault plan and its injector hold only the links that differ or have
//! drawn, and with the engine's sparse exchange mode the traffic stays
//! proportional to actual migration, not to `ranks²`.

use std::collections::VecDeque;

use cluster_sim::NetworkModel;
use netsim::{
    FailedSend, FaultPlan, PlanInjector, SendFate, TrafficStats, TransportError, WireSize,
    WireState,
};
use psa_runtime::checkpoint::FabricCheckpoint;
use psa_runtime::msg::Msg;
use psa_runtime::protocol::Fabric;

/// Counters the fabric accumulates over a run. Pure observability: none of
/// these feed back into timing or protocol state, so an instrumented run
/// is byte-identical to a blind one. This is what turns the fabric into a
/// legible simulator: how many messages were delivered, how often a
/// receiver's clock fast-forwarded past idle virtual time, and how many
/// messages were in flight at once — the data the BENCH_5 scaling sweep
/// aggregates per cell.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Messages taken off a link (received, or drained by crash cleanup).
    pub events: u64,
    /// Messages accepted onto the wire (transient injected failures are
    /// not counted — they never reached a link).
    pub sends: u64,
    /// Receives that fast-forwarded the receiver's clock past idle virtual
    /// time (the receiver was "ahead of" no one — it slept until delivery).
    pub fast_forwards: u64,
    /// Bounded receives that found nothing deliverable and charged the
    /// wait (the degraded-mode path around crashed peers).
    pub blocked_recvs: u64,
    /// Most messages in flight (sent, not yet taken off their link) at
    /// once, over all links.
    pub max_heap_depth: usize,
}

/// The traffic into one receiving rank: every sender's in-flight
/// `(from, deliver_at, msg)`, in send order.
type Inbox = VecDeque<(usize, f64, Msg)>;

/// Virtual message fabric for the shared protocol engine.
pub struct EventFabric {
    wire: WireState,
    /// In-flight messages into each rank, `inboxes[to]`.
    inboxes: Vec<Inbox>,
    /// Messages queued over all inboxes.
    in_flight: usize,
    inj: PlanInjector,
    stats: SimStats,
}

impl EventFabric {
    /// Build the fabric for ranks living on the given nodes, executing the
    /// given fault plan (pass `FaultPlan::none(..)` for a healthy cluster).
    pub fn new(net: NetworkModel, node_of: Vec<usize>, node_count: usize, plan: FaultPlan) -> Self {
        let ranks = node_of.len();
        EventFabric {
            wire: WireState::new(net, node_of, node_count),
            inboxes: vec![Inbox::new(); ranks],
            in_flight: 0,
            inj: PlanInjector::new(plan),
            stats: SimStats::default(),
        }
    }

    /// Snapshot of the fabric's counters.
    pub fn sim_stats(&self) -> SimStats {
        self.stats
    }
}

impl Fabric for EventFabric {
    fn send(&mut self, from: usize, to: usize, msg: Msg) -> Result<(), FailedSend<Msg>> {
        // A receiver the fabric does not have is refused before the
        // injector draws or the wire charges anything.
        let Some(inbox) = self.inboxes.get_mut(to) else {
            return Err(FailedSend {
                msg,
                error: TransportError::Disconnected { rank: from, peer: to },
            });
        };
        let payload = msg.wire_bytes();
        match self.inj.on_send(from, to, payload) {
            SendFate::Deliver { extra_delay } => {
                // Counters + sender clock + occupancy; the delivery stamp
                // travels with the message.
                let deliver_at = self.wire.charge_send(from, to, payload, extra_delay);
                inbox.push_back((from, deliver_at, msg));
                self.in_flight += 1;
                self.stats.sends += 1;
                self.stats.max_heap_depth = self.stats.max_heap_depth.max(self.in_flight);
                Ok(())
            }
            SendFate::FailTransient => {
                // The failure models a NIC/queue rejection before occupancy:
                // nothing is charged, the message comes back for retry.
                Err(FailedSend { msg, error: TransportError::SendFailed { rank: from, peer: to } })
            }
        }
    }

    fn recv(&mut self, to: usize, from: usize) -> Result<Msg, TransportError> {
        let inbox = self.inboxes.get_mut(to);
        match inbox.and_then(|inbox| inbox.remove(inbox.iter().position(|e| e.0 == from)?)) {
            Some((_, deliver_at, msg)) => {
                self.in_flight -= 1;
                self.stats.events += 1;
                if self.wire.observe_delivery(to, deliver_at) {
                    self.stats.fast_forwards += 1;
                }
                Ok(msg)
            }
            None => Err(TransportError::NoMessage { rank: to, peer: from }),
        }
    }

    fn recv_deadline(&mut self, to: usize, from: usize, wait: f64) -> Result<Msg, TransportError> {
        let Some(inbox) = self.inboxes.get(to) else {
            return Err(TransportError::NoMessage { rank: to, peer: from });
        };
        if !inbox.iter().any(|e| e.0 == from) {
            // Nothing in flight can ever satisfy this receive (every sent
            // message is already in its inbox): charge the bounded wait and
            // surface the timeout.
            self.stats.blocked_recvs += 1;
            self.wire.advance(to, wait);
            return Err(TransportError::Timeout { rank: to, peer: from });
        }
        self.recv(to, from)
    }

    fn take_queued(&mut self, to: usize, from: usize) -> Vec<Msg> {
        let Some(inbox) = self.inboxes.get_mut(to) else {
            return Vec::new();
        };
        let (drained, kept): (Inbox, Inbox) =
            std::mem::take(inbox).into_iter().partition(|e| e.0 == from);
        *inbox = kept;
        self.in_flight -= drained.len();
        self.stats.events += drained.len() as u64;
        drained.into_iter().map(|(_, _, msg)| msg).collect()
    }

    fn queued_senders(&mut self, to: usize) -> Vec<usize> {
        let mut senders: Vec<usize> =
            self.inboxes.get(to).map_or_else(Vec::new, |inbox| inbox.iter().map(|e| e.0).collect());
        senders.sort_unstable();
        senders.dedup();
        senders
    }

    fn now(&self, rank: usize) -> f64 {
        self.wire.now(rank)
    }

    fn advance(&mut self, rank: usize, seconds: f64) {
        self.wire.advance(rank, seconds);
    }

    fn barrier(&mut self, ranks: &[usize]) {
        self.wire.barrier(ranks);
    }

    fn makespan(&self) -> f64 {
        self.wire.makespan()
    }

    fn ranks(&self) -> usize {
        self.wire.ranks()
    }

    fn stats(&self) -> TrafficStats {
        self.wire.stats()
    }

    fn compute_factor(&self, rank: usize) -> f64 {
        self.inj.compute_factor(rank)
    }

    fn stall_seconds(&self, rank: usize, frame: u64) -> f64 {
        self.inj.stall_seconds(rank, frame)
    }

    fn crash_frame(&self, rank: usize) -> Option<u64> {
        self.inj.crash_frame(rank)
    }

    fn save_fabric(&self) -> FabricCheckpoint {
        FabricCheckpoint {
            wire: self.wire.checkpoint(),
            injector_streams: self.inj.stream_states(),
            // The cumulative counters ride in the opaque extras so a
            // restored fabric does not count replayed frames twice. The
            // in-flight high-water mark is a maximum, not a sum: a restore
            // leaves it alone.
            extra: vec![
                self.stats.events,
                self.stats.sends,
                self.stats.fast_forwards,
                self.stats.blocked_recvs,
            ],
        }
    }

    /// Checks the counters, the injector streams and the wire's shape
    /// before it writes any of them; a refused checkpoint leaves the
    /// fabric, queued traffic included, as it was.
    fn load_fabric(&mut self, ck: &FabricCheckpoint) -> Result<(), String> {
        let &[events, sends, fast_forwards, blocked_recvs] = ck.extra.as_slice() else {
            return Err(format!("{} fabric counters, expected 4", ck.extra.len()));
        };
        let mut inj = self.inj.clone();
        inj.restore_stream_states(&ck.injector_streams)?;
        self.wire.restore_checkpoint(&ck.wire)?;
        self.inj = inj;
        // Frame-boundary checkpoints never capture in-flight traffic:
        // drop whatever the inboxes hold.
        self.inboxes.iter_mut().for_each(Inbox::clear);
        self.in_flight = 0;
        self.stats = SimStats { events, sends, fast_forwards, blocked_recvs, ..self.stats };
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster_sim::NetworkModel;
    use netsim::LinkFault;

    fn model() -> NetworkModel {
        NetworkModel::myrinet()
    }

    fn fabric(ranks: usize) -> EventFabric {
        faulty(FaultPlan::none(1, ranks))
    }

    /// The fabric executing `plan`, one rank per node.
    fn faulty(plan: FaultPlan) -> EventFabric {
        let ranks = plan.ranks();
        EventFabric::new(model(), (0..ranks).collect(), ranks, plan)
    }

    #[test]
    fn send_recv_round_trip_reproduces_pinned_clocks() {
        let mut ev = fabric(3);
        for (from, to) in [(0, 1), (1, 2), (2, 0), (0, 1)] {
            assert!(EventFabric::send(&mut ev, from, to, Msg::FrameDone { frame: 0 }).is_ok());
        }
        for (to, from) in [(1, 0), (2, 1), (0, 2), (1, 0)] {
            let m = EventFabric::recv(&mut ev, to, from).expect("queued");
            assert!(matches!(m, Msg::FrameDone { frame: 0 }));
        }
        // Clock bits the queue-stepped fabric produced for this exchange
        // before it was retired.
        let pinned = [0x3ee9_e65b_134c_0d1f_u64, 0x3eed_2681_7408_e658, 0x3ee8_f4c3_8bdb_6af5];
        for (r, bits) in pinned.into_iter().enumerate() {
            assert_eq!(Fabric::now(&ev, r).to_bits(), bits, "clock {r} diverged");
        }
        assert_eq!(ev.makespan().to_bits(), pinned[1]);
        assert_eq!(Fabric::stats(&ev).messages, 4);
    }

    #[test]
    fn per_link_fifo_survives_cross_link_interleaving() {
        let mut ev = fabric(4);
        // 0→3 and 1→3 interleaved; each link must drain in its own order.
        for i in 0..3u64 {
            EventFabric::send(&mut ev, 0, 3, Msg::FrameDone { frame: i }).expect("send");
            EventFabric::send(&mut ev, 1, 3, Msg::FrameDone { frame: 10 + i }).expect("send");
        }
        for i in 0..3u64 {
            match EventFabric::recv(&mut ev, 3, 0) {
                Ok(Msg::FrameDone { frame }) => assert_eq!(frame, i),
                other => panic!("link (3,0) out of order: {other:?}"),
            }
        }
        for i in 0..3u64 {
            match EventFabric::recv(&mut ev, 3, 1) {
                Ok(Msg::FrameDone { frame }) => assert_eq!(frame, 10 + i),
                other => panic!("link (3,1) out of order: {other:?}"),
            }
        }
    }

    #[test]
    fn inverted_delivery_stamps_do_not_reorder_a_link() {
        // 0→2 is slow and jittery, 1→2 is clean: interleaved sends leave
        // 0→2's stamps out of order among themselves and all later than
        // 1→2's. Each link still delivers in its own send order.
        let mut plan = FaultPlan::none(11, 3);
        *plan.link_mut(0, 2) = LinkFault { extra_latency: 0.5, ..LinkFault::jittery(1.0, 1.0) };
        let mut ev = faulty(plan);
        for i in 0..8u64 {
            EventFabric::send(&mut ev, 0, 2, Msg::FrameDone { frame: i }).expect("send");
            EventFabric::send(&mut ev, 1, 2, Msg::FrameDone { frame: 10 + i }).expect("send");
        }
        let stamps = |ev: &EventFabric, from| -> Vec<f64> {
            ev.inboxes[2].iter().filter(|e| e.0 == from).map(|e| e.1).collect()
        };
        let (slow, clean) = (stamps(&ev, 0), stamps(&ev, 1));
        assert!(slow.windows(2).any(|w| w[0] > w[1]), "jitter must invert stamps: {slow:?}");
        assert!(slow[0] > clean[7], "the first slow message lands after the last clean one");
        for (from, base) in [(0, 0), (1, 10)] {
            for i in 0..8u64 {
                match EventFabric::recv(&mut ev, 2, from) {
                    Ok(Msg::FrameDone { frame }) => assert_eq!(frame, base + i),
                    other => panic!("link (2,{from}) out of order: {other:?}"),
                }
            }
        }
    }

    #[test]
    fn in_flight_high_water_mark_survives_drains_and_restores() {
        let mut ev = fabric(3);
        let send = |ev: &mut EventFabric, to, n: u64| {
            for frame in 0..n {
                EventFabric::send(ev, 0, to, Msg::FrameDone { frame }).expect("send");
            }
        };
        send(&mut ev, 1, 3);
        assert_eq!(EventFabric::take_queued(&mut ev, 1, 0).len(), 3);
        send(&mut ev, 1, 2);
        assert_eq!(ev.sim_stats().max_heap_depth, 3, "drained messages are no longer in flight");
        let ck = ev.save_fabric();
        send(&mut ev, 2, 2);
        assert_eq!(ev.sim_stats().max_heap_depth, 4);
        ev.load_fabric(&ck).expect("the fabric's own checkpoint");
        assert!(EventFabric::recv(&mut ev, 2, 0).is_err(), "a restore drops queued traffic");
        send(&mut ev, 2, 4);
        let stats = ev.sim_stats();
        assert_eq!(stats.max_heap_depth, 4, "dropped messages are no longer in flight");
        assert_eq!((stats.sends, stats.events), (9, 3), "counters rewound to the checkpoint");
    }

    #[test]
    fn a_refused_checkpoint_leaves_the_fabric_as_it_was() {
        let mut plan = FaultPlan::none(5, 3);
        plan.set_all_links(LinkFault::jittery(0.5, 1e-3));
        let mut ev = faulty(plan);
        for frame in 0..4 {
            EventFabric::send(&mut ev, 0, 1, Msg::FrameDone { frame }).expect("send");
        }
        let before = ev.save_fabric();
        assert!(!before.injector_streams.is_empty());
        // A checkpoint that fits and differs in every part, then three
        // copies of it each broken in one part: none may write the others.
        let mut other = before.clone();
        other.wire.shared_free = 9.0;
        other.injector_streams.clear();
        other.extra = vec![1, 2, 3, 4];
        let mut bad_extra = other.clone();
        bad_extra.extra.pop();
        let mut bad_streams = other.clone();
        bad_streams.injector_streams = vec![1, 2];
        let mut bad_wire = other.clone();
        bad_wire.wire.link_free.push(0.0);
        for bad in [bad_extra, bad_streams, bad_wire] {
            assert!(ev.load_fabric(&bad).is_err());
            assert_eq!(ev.save_fabric(), before);
        }
        assert_eq!(EventFabric::queued_senders(&mut ev, 1), vec![0], "traffic survives a refusal");
        ev.load_fabric(&other).expect("fits");
        assert_eq!(ev.save_fabric(), other);
    }

    #[test]
    fn checkpoints_carry_streams_only_for_links_that_drew() {
        let mut quiet = fabric(1026);
        let mut plan = FaultPlan::none(1, 1026);
        plan.set_all_links(LinkFault::lossy(0.5));
        let mut lossy = faulty(plan);
        for (from, to) in [(0, 1025), (1025, 0), (7, 512), (0, 1025)] {
            let _ = EventFabric::send(&mut quiet, from, to, Msg::FrameDone { frame: 0 });
            let _ = EventFabric::send(&mut lossy, from, to, Msg::FrameDone { frame: 0 });
        }
        assert!(quiet.save_fabric().injector_streams.is_empty());
        assert_eq!(lossy.save_fabric().injector_streams.len(), 3 * 3);
    }

    #[test]
    fn empty_links_error_and_deadline_charges_wait() {
        let mut ev = fabric(2);
        assert!(matches!(
            EventFabric::recv(&mut ev, 0, 1),
            Err(TransportError::NoMessage { rank: 0, peer: 1 })
        ));
        let t0 = Fabric::now(&ev, 0);
        assert!(matches!(
            EventFabric::recv_deadline(&mut ev, 0, 1, 0.25),
            Err(TransportError::Timeout { rank: 0, peer: 1 })
        ));
        assert_eq!(Fabric::now(&ev, 0), t0 + 0.25);
        assert_eq!(ev.sim_stats().blocked_recvs, 1);
        // A deadline receive with traffic queued delivers it instead.
        EventFabric::send(&mut ev, 1, 0, Msg::FrameDone { frame: 8 }).expect("send");
        assert!(matches!(
            EventFabric::recv_deadline(&mut ev, 0, 1, 0.25),
            Ok(Msg::FrameDone { frame: 8 })
        ));
    }

    #[test]
    fn queued_senders_are_sparse_and_ascending() {
        let mut ev = fabric(8);
        for from in [5, 2, 7] {
            EventFabric::send(&mut ev, from, 3, Msg::FrameDone { frame: 0 }).expect("send");
        }
        assert_eq!(EventFabric::queued_senders(&mut ev, 3), vec![2, 5, 7]);
        assert_eq!(EventFabric::queued_senders(&mut ev, 0), Vec::<usize>::new());
        // Every message sits in its receiver's inbox, in send order.
        assert_eq!(queued(&ev), 3);
        assert_eq!(senders(&ev, 3), vec![5, 2, 7]);
        // A drained link drops out of the list.
        EventFabric::recv(&mut ev, 3, 5).expect("queued");
        assert_eq!(EventFabric::queued_senders(&mut ev, 3), vec![2, 7]);
    }

    /// Messages the fabric holds, over every inbox.
    fn queued(ev: &EventFabric) -> usize {
        ev.inboxes.iter().map(Inbox::len).sum()
    }

    /// The sender of each message in `to`'s inbox, in send order.
    fn senders(ev: &EventFabric, to: usize) -> Vec<usize> {
        ev.inboxes[to].iter().map(|e| e.0).collect()
    }

    #[test]
    fn queued_senders_are_distinct_and_ascending() {
        let mut ev = fabric(8);
        for from in [6, 1, 6, 3, 1, 6, 0] {
            EventFabric::send(&mut ev, from, 4, Msg::FrameDone { frame: 0 }).expect("send");
        }
        assert_eq!(EventFabric::queued_senders(&mut ev, 4), vec![0, 1, 3, 6]);
        // A sender stays listed until its last message is taken.
        EventFabric::recv(&mut ev, 4, 6).expect("queued");
        EventFabric::recv(&mut ev, 4, 1).expect("queued");
        assert_eq!(EventFabric::queued_senders(&mut ev, 4), vec![0, 1, 3, 6]);
        assert_eq!(EventFabric::take_queued(&mut ev, 4, 6).len(), 2);
        assert_eq!(EventFabric::queued_senders(&mut ev, 4), vec![0, 1, 3]);
    }

    #[test]
    fn a_receive_finds_its_sender_behind_another_senders_traffic() {
        let mut ev = fabric(4);
        for (from, frame) in [(0, 1), (0, 2), (2, 3), (1, 4), (2, 5)] {
            EventFabric::send(&mut ev, from, 3, Msg::FrameDone { frame }).expect("send");
        }
        // Sender 2's oldest message sits behind two of sender 0's: it comes
        // out first, and everything else stays in send order.
        assert_eq!(EventFabric::recv(&mut ev, 3, 2), Ok(Msg::FrameDone { frame: 3 }));
        assert_eq!(senders(&ev, 3), vec![0, 0, 1, 2]);
        assert_eq!(EventFabric::recv(&mut ev, 3, 1), Ok(Msg::FrameDone { frame: 4 }));
        assert_eq!(EventFabric::recv(&mut ev, 3, 2), Ok(Msg::FrameDone { frame: 5 }));
        assert_eq!(EventFabric::recv(&mut ev, 3, 0), Ok(Msg::FrameDone { frame: 1 }));
        assert_eq!(EventFabric::recv(&mut ev, 3, 0), Ok(Msg::FrameDone { frame: 2 }));
        assert_eq!((queued(&ev), ev.sim_stats().events), (0, 5));
        // The receiver's clock ends at the latest stamp it took.
        assert!(Fabric::now(&ev, 3) >= Fabric::now(&ev, 2));
    }

    #[test]
    fn take_queued_keeps_the_other_senders_in_order() {
        let mut ev = fabric(4);
        for (from, frame) in [(1, 0), (2, 1), (1, 2), (0, 3), (2, 4), (1, 5), (0, 6)] {
            EventFabric::send(&mut ev, from, 3, Msg::FrameDone { frame }).expect("send");
        }
        let frames = |msgs: Vec<Msg>| -> Vec<u64> {
            msgs.into_iter()
                .map(|m| match m {
                    Msg::FrameDone { frame } => frame,
                    other => panic!("{other:?}"),
                })
                .collect()
        };
        assert_eq!(frames(EventFabric::take_queued(&mut ev, 3, 1)), vec![0, 2, 5]);
        assert_eq!(senders(&ev, 3), vec![2, 0, 2, 0]);
        assert_eq!(EventFabric::queued_senders(&mut ev, 3), vec![0, 2]);
        assert_eq!(frames(EventFabric::take_queued(&mut ev, 3, 0)), vec![3, 6]);
        assert_eq!(frames(EventFabric::take_queued(&mut ev, 3, 2)), vec![1, 4]);
        assert!(EventFabric::take_queued(&mut ev, 3, 1).is_empty());
        assert_eq!(ev.sim_stats().events, 7);
    }

    #[test]
    fn a_deadline_receive_times_out_behind_other_senders_traffic() {
        let mut ev = fabric(4);
        for from in [0, 2, 0] {
            EventFabric::send(&mut ev, from, 3, Msg::FrameDone { frame: 0 }).expect("send");
        }
        let t0 = Fabric::now(&ev, 3);
        assert_eq!(
            EventFabric::recv_deadline(&mut ev, 3, 1, 0.25),
            Err(TransportError::Timeout { rank: 3, peer: 1 })
        );
        assert_eq!(Fabric::now(&ev, 3), t0 + 0.25, "the wait is charged");
        assert_eq!(ev.sim_stats().blocked_recvs, 1);
        assert_eq!(senders(&ev, 3), vec![0, 2, 0], "the other senders' traffic stays queued");
        assert!(EventFabric::recv_deadline(&mut ev, 3, 2, 0.25).is_ok());
        assert_eq!(ev.sim_stats().blocked_recvs, 1);
    }

    #[test]
    fn senders_that_first_arrive_out_of_order_are_filed_in_order() {
        let mut ev = fabric(16);
        // First sends descending, then ascending with gaps, then a second
        // message on every link: each new sender lands in the middle, at
        // the front or at the end of the inbox.
        let first = [9, 4, 2, 12, 3, 15, 0, 7, 10];
        for (i, &from) in first.iter().enumerate() {
            EventFabric::send(&mut ev, from, 5, Msg::FrameDone { frame: i as u64 }).expect("send");
        }
        for (i, &from) in first.iter().enumerate().rev() {
            let frame = 100 + i as u64;
            EventFabric::send(&mut ev, from, 5, Msg::FrameDone { frame }).expect("send");
        }
        let mut ascending = first.to_vec();
        ascending.sort_unstable();
        assert_eq!(EventFabric::queued_senders(&mut ev, 5), ascending);
        for (i, &from) in first.iter().enumerate() {
            for want in [i as u64, 100 + i as u64] {
                match EventFabric::recv(&mut ev, 5, from) {
                    Ok(Msg::FrameDone { frame }) => assert_eq!(frame, want),
                    other => panic!("link (5,{from}) out of order: {other:?}"),
                }
            }
        }
        // Drained links drop out of the list and leave nothing behind.
        assert_eq!(queued(&ev), 0);
        assert!(EventFabric::queued_senders(&mut ev, 5).is_empty());
        EventFabric::send(&mut ev, 4, 5, Msg::FrameDone { frame: 7 }).expect("send");
        assert_eq!(EventFabric::queued_senders(&mut ev, 5), vec![4]);
    }

    /// `desim_1024`'s rank count: 1,024 calculators, manager, image generator.
    const RANKS_1024: usize = 1026;

    #[test]
    fn a_thousand_senders_to_one_receiver_come_back_ascending() {
        let mut ev = fabric(RANKS_1024);
        let (mgr, calcs) = (1024, 1024);
        // Every calculator reports, in an order that is not rank order
        // (389 is odd, so i ↦ 389·i mod 1024 visits each rank once).
        for i in 0..calcs {
            let from = (389 * i) % calcs;
            EventFabric::send(&mut ev, from, mgr, Msg::FrameDone { frame: from as u64 })
                .expect("send");
        }
        assert_eq!(EventFabric::queued_senders(&mut ev, mgr), (0..calcs).collect::<Vec<_>>());
        for from in 0..calcs {
            match EventFabric::recv(&mut ev, mgr, from) {
                Ok(Msg::FrameDone { frame }) => assert_eq!(frame, from as u64),
                other => panic!("link ({mgr},{from}): {other:?}"),
            }
        }
        assert!(EventFabric::queued_senders(&mut ev, mgr).is_empty());
    }

    #[test]
    fn per_link_fifo_holds_across_receivers() {
        let mut ev = fabric(RANKS_1024);
        let receivers = [1, 512, 1024, 1025];
        // One sender interleaves a stream to four receivers, a second one
        // shares a receiver with it; every link drains in its own send order.
        for i in 0..6u64 {
            for (k, &to) in receivers.iter().enumerate() {
                let frame = 100 * k as u64 + i;
                EventFabric::send(&mut ev, 0, to, Msg::FrameDone { frame }).expect("send");
            }
            EventFabric::send(&mut ev, 7, 512, Msg::FrameDone { frame: 900 + i }).expect("send");
        }
        for (k, &to) in receivers.iter().enumerate().rev() {
            for i in 0..6u64 {
                match EventFabric::recv(&mut ev, to, 0) {
                    Ok(Msg::FrameDone { frame }) => assert_eq!(frame, 100 * k as u64 + i),
                    other => panic!("link ({to},0) out of order: {other:?}"),
                }
            }
        }
        let rest: Vec<Msg> = EventFabric::take_queued(&mut ev, 512, 7);
        assert_eq!(rest, (0..6).map(|i| Msg::FrameDone { frame: 900 + i }).collect::<Vec<_>>());
    }

    #[test]
    fn a_restore_empties_every_receivers_queues() {
        let mut ev = fabric(RANKS_1024);
        let ck = ev.save_fabric();
        for (from, to) in [(0, 1024), (1023, 1024), (1024, 5), (1024, 1023), (5, 1025), (1025, 0)] {
            EventFabric::send(&mut ev, from, to, Msg::FrameDone { frame: 1 }).expect("send");
        }
        assert_eq!(queued(&ev), 6);
        ev.load_fabric(&ck).expect("the fabric's own checkpoint");
        assert_eq!(queued(&ev), 0, "no receiver keeps a message across a restore");
        assert!((0..RANKS_1024).all(|to| EventFabric::queued_senders(&mut ev, to).is_empty()));
        assert!(EventFabric::recv(&mut ev, 1024, 0).is_err());
        assert_eq!(ev.inboxes.len(), RANKS_1024, "every rank keeps its inbox across the restore");
    }

    #[test]
    fn queues_exist_only_for_links_that_sent() {
        let mut ev = fabric(RANKS_1024);
        assert_eq!((ev.inboxes.len(), queued(&ev)), (RANKS_1024, 0), "one empty inbox per rank");
        for (from, to) in [(3, 1024), (3, 1024), (4, 1024), (1024, 3), (3, 4)] {
            EventFabric::send(&mut ev, from, to, Msg::FrameDone { frame: 0 }).expect("send");
        }
        assert_eq!(queued(&ev), 5, "one entry per message, in its receiver's inbox");
        assert_eq!(senders(&ev, 1024), vec![3, 3, 4]);
        // Receives and crash cleanup never add an entry.
        let _ = EventFabric::recv(&mut ev, 1025, 9);
        let _ = EventFabric::recv_deadline(&mut ev, 1025, 8, 1e-3);
        let _ = EventFabric::take_queued(&mut ev, 1025, 7);
        assert_eq!(queued(&ev), 5);
        assert!(ev.inboxes[1025].is_empty());
    }

    #[test]
    fn ranks_outside_the_fabric_are_typed_errors_that_charge_nothing() {
        let mut ev = fabric(3);
        let before = ev.save_fabric();
        match EventFabric::send(&mut ev, 0, 3, Msg::FrameDone { frame: 0 }) {
            Err(FailedSend { msg: Msg::FrameDone { frame: 0 }, error }) => {
                assert_eq!(error, TransportError::Disconnected { rank: 0, peer: 3 });
            }
            other => panic!("rank 3 does not exist: {other:?}"),
        }
        assert_eq!(
            EventFabric::recv(&mut ev, 3, 0),
            Err(TransportError::NoMessage { rank: 3, peer: 0 })
        );
        assert_eq!(
            EventFabric::recv_deadline(&mut ev, 3, 0, 0.5),
            Err(TransportError::NoMessage { rank: 3, peer: 0 })
        );
        assert!(EventFabric::take_queued(&mut ev, 3, 0).is_empty());
        assert!(EventFabric::queued_senders(&mut ev, 3).is_empty());
        assert_eq!(ev.save_fabric(), before, "no clock, counter or stream moved");
        assert_eq!(ev.sim_stats(), SimStats::default());
    }

    #[test]
    fn take_queued_drains_without_touching_clocks() {
        let mut ev = fabric(2);
        EventFabric::send(&mut ev, 1, 0, Msg::FrameDone { frame: 1 }).expect("send");
        EventFabric::send(&mut ev, 1, 0, Msg::FrameDone { frame: 2 }).expect("send");
        let t0 = Fabric::now(&ev, 0);
        let drained = EventFabric::take_queued(&mut ev, 0, 1);
        assert_eq!(drained.len(), 2);
        assert!(matches!(drained.first(), Some(Msg::FrameDone { frame: 1 })));
        assert_eq!(Fabric::now(&ev, 0), t0);
    }

    #[test]
    fn fast_forward_counts_idle_receivers_only() {
        let mut ev = fabric(2);
        EventFabric::send(&mut ev, 0, 1, Msg::FrameDone { frame: 0 }).expect("send");
        // Receiver clock is behind the delivery stamp: fast-forward.
        EventFabric::recv(&mut ev, 1, 0).expect("queued");
        assert_eq!(ev.sim_stats().fast_forwards, 1);
        // Receiver far ahead: no fast-forward on the next delivery.
        Fabric::advance(&mut ev, 1, 1000.0);
        EventFabric::send(&mut ev, 0, 1, Msg::FrameDone { frame: 1 }).expect("send");
        EventFabric::recv(&mut ev, 1, 0).expect("queued");
        assert_eq!(ev.sim_stats().fast_forwards, 1);
    }

    #[test]
    fn transient_failure_returns_message_uncharged() {
        let mut plan = FaultPlan::none(7, 2);
        *plan.link_mut(0, 1) = LinkFault::lossy(0.999_999);
        let mut ev = faulty(plan);
        let t0 = Fabric::now(&ev, 0);
        match EventFabric::send(&mut ev, 0, 1, Msg::FrameDone { frame: 0 }) {
            Err(FailedSend { msg: Msg::FrameDone { .. }, error }) => {
                assert_eq!(error, TransportError::SendFailed { rank: 0, peer: 1 });
            }
            other => panic!("lossy link should reject: {other:?}"),
        }
        assert_eq!(Fabric::now(&ev, 0), t0, "failed send must not charge wire time");
        assert_eq!(ev.sim_stats().sends, 0);
        assert_eq!(Fabric::stats(&ev).messages, 0, "failed sends put nothing on the wire");
    }

    #[test]
    fn injected_latency_reaches_the_receiver_clock() {
        let mut plan = FaultPlan::none(3, 2);
        plan.link_mut(0, 1).extra_latency = 0.5;
        let mut ev = faulty(plan);
        EventFabric::send(&mut ev, 0, 1, Msg::FrameDone { frame: 0 }).expect("send");
        EventFabric::recv(&mut ev, 1, 0).expect("queued");
        assert!(Fabric::now(&ev, 1) >= 0.5, "extra latency must reach the receiver clock");
        assert!(Fabric::now(&ev, 0) < 0.5, "in-flight delay does not occupy the sender");
    }

    #[test]
    fn compute_factor_reports_the_planned_slowdown() {
        let mut plan = FaultPlan::none(0, 2);
        plan.rank_mut(1).slowdown = 3.0;
        let ev = faulty(plan);
        assert_eq!(Fabric::compute_factor(&ev, 0), 1.0);
        assert_eq!(Fabric::compute_factor(&ev, 1), 3.0);
    }
}
