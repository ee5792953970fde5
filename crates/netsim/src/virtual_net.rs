//! The deterministic virtual wire.
//!
//! Each rank has a virtual clock. Compute advances a clock directly; a send
//! occupies the sender until the message leaves its NIC (blocking send),
//! occupies the involved links per the `NetworkModel`, and is stamped with
//! a delivery time; a receive advances the receiver's clock to at least the
//! delivery stamp. A barrier aligns every clock to the maximum plus a
//! log₂-depth synchronization cost.
//!
//! [`WireState`] is that timing arithmetic and nothing else: clocks, link
//! occupancy, topology-aware latency, and traffic counters. It owns no
//! messages — the fabric in `psa-desim` queues each message on its link
//! with the delivery stamp and hands the stamp back at the receive.
//!
//! It is intentionally **not** thread-safe: the virtual executor
//! interleaves ranks itself in a fixed order, which is what makes the
//! reproduction bit-deterministic.

// psa-verify: allow(index-panic) — fabric hot path: every rank/node index
// comes from the constructor-validated topology (`new` sizes clocks,
// node_of, and link_free to `ranks`/`nodes`), and the
// executors address ranks 0..ranks by construction. Out-of-range here is a
// checker-caught bug upstream, not a runtime input.
use cluster_sim::NetworkModel;

use crate::FRAME_OVERHEAD_BYTES;

/// Aggregate traffic counters (resettable, e.g. per frame).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct TrafficStats {
    pub messages: u64,
    pub payload_bytes: u64,
}

/// The clock-and-link half of a virtual fabric: per-rank virtual clocks,
/// per-node NIC occupancy (or a shared medium), topology-aware latency, and
/// traffic counters. Owns no message queues — callers decide how delivery
/// stamps turn into deliveries (`psa-desim`'s fabric keeps one FIFO per
/// directed link and calls [`observe_delivery`](Self::observe_delivery)
/// with the stamp of the message a receive pops).
pub struct WireState {
    net: NetworkModel,
    /// Virtual clock per rank, seconds.
    clocks: Vec<f64>,
    /// Node hosting each rank (link contention granularity).
    node_of: Vec<usize>,
    /// Time each node's NIC becomes free.
    link_free: Vec<f64>,
    /// Time the shared medium becomes free (Fast-Ethernet mode).
    shared_free: f64,
    stats: TrafficStats,
}

impl WireState {
    /// Create the clock state for ranks living on the given nodes.
    /// `node_of[rank]` maps each rank to its node index.
    pub fn new(net: NetworkModel, node_of: Vec<usize>, node_count: usize) -> Self {
        let ranks = node_of.len();
        assert!(ranks > 0);
        assert!(node_of.iter().all(|&n| n < node_count));
        WireState {
            net,
            clocks: vec![0.0; ranks],
            node_of,
            link_free: vec![0.0; node_count],
            shared_free: 0.0,
            stats: TrafficStats::default(),
        }
    }

    pub fn ranks(&self) -> usize {
        self.clocks.len()
    }

    /// Current virtual time of `rank`.
    pub fn now(&self, rank: usize) -> f64 {
        self.clocks[rank]
    }

    /// Charge `seconds` of local compute to `rank`.
    pub fn advance(&mut self, rank: usize, seconds: f64) {
        debug_assert!(seconds >= 0.0, "cannot advance time backwards ({seconds})");
        self.clocks[rank] += seconds;
    }

    /// Charge the full sender-side cost of one message of `payload` bytes
    /// from `from` to `to` and return its delivery stamp. This is the
    /// single implementation of the send timing model: counters, sender CPU,
    /// link/medium occupancy (the sender blocks until NIC hand-off), and
    /// topology-aware latency. Local (same-rank) and intra-node sends skip
    /// the NIC, exactly as before the extraction.
    pub fn charge_send(&mut self, from: usize, to: usize, payload: u64, extra_delay: f64) -> f64 {
        debug_assert!(extra_delay >= 0.0, "delays cannot be negative ({extra_delay})");
        self.stats.messages += 1;
        self.stats.payload_bytes += payload;
        if from == to {
            return self.clocks[from] + extra_delay;
        }
        let bytes = payload + FRAME_OVERHEAD_BYTES;
        // Sender CPU cost of initiating the message.
        self.clocks[from] += self.net.per_message_cpu;
        let occupancy = self.net.occupancy(bytes);
        let (src, dst) = (self.node_of[from], self.node_of[to]);
        let start = if self.net.shared_medium {
            self.shared_free.max(self.clocks[from])
        } else {
            if src == dst {
                // intra-node: memory copy, no NIC involvement; charge a
                // fraction of wire occupancy for the copy itself.
                let t = self.clocks[from] + occupancy * 0.1;
                self.clocks[from] = t;
                return t + extra_delay;
            }
            self.clocks[from].max(self.link_free[src]).max(self.link_free[dst])
        };
        let done = start + occupancy;
        if self.net.shared_medium {
            self.shared_free = done;
        } else {
            self.link_free[src] = done;
            self.link_free[dst] = done;
        }
        // Blocking semantics: the sender is busy until its NIC hand-off
        // completes.
        self.clocks[from] = done;
        done + self.net.latency_between(src, dst) + extra_delay
    }

    /// Advance `to`'s clock to a message's delivery stamp if it is still
    /// behind it; returns whether the clock moved (a fast-forward past idle
    /// virtual time).
    pub fn observe_delivery(&mut self, to: usize, deliver_at: f64) -> bool {
        if deliver_at > self.clocks[to] {
            self.clocks[to] = deliver_at;
            true
        } else {
            false
        }
    }

    /// Synchronize a set of ranks: all clocks advance to the maximum plus a
    /// dissemination-barrier cost of `latency × ⌈log₂ n⌉`.
    pub fn barrier(&mut self, ranks: &[usize]) {
        let max = ranks.iter().map(|&r| self.clocks[r]).fold(f64::NEG_INFINITY, f64::max);
        let depth = (ranks.len() as f64).log2().ceil().max(0.0);
        let t = max + self.net.latency * depth;
        for &r in ranks {
            self.clocks[r] = t;
        }
    }

    /// Maximum clock across all ranks — the virtual makespan.
    pub fn makespan(&self) -> f64 {
        self.clocks.iter().copied().fold(0.0, f64::max)
    }

    /// Snapshot of traffic counters.
    pub fn stats(&self) -> TrafficStats {
        self.stats
    }

    /// Capture every mutable field of the wire — clocks, NIC/medium
    /// occupancy, traffic counters — into a [`WireCheckpoint`]. The network
    /// model and rank→node placement are construction constants and are
    /// *not* captured: a checkpoint only makes sense against a fabric built
    /// from the same topology, which [`restore_checkpoint`] checks.
    ///
    /// [`restore_checkpoint`]: Self::restore_checkpoint
    pub fn checkpoint(&self) -> WireCheckpoint {
        WireCheckpoint {
            clocks: self.clocks.clone(),
            link_free: self.link_free.clone(),
            shared_free: self.shared_free,
            stats: self.stats,
        }
    }

    /// Rewind the wire to a previously captured [`WireCheckpoint`].
    ///
    /// A checkpoint whose shape does not fit this wire — a clock for each
    /// rank, a NIC cursor for each node — is refused with a description, and
    /// the wire is left as it was.
    pub fn restore_checkpoint(&mut self, ck: &WireCheckpoint) -> Result<(), String> {
        let (ranks, nodes) = (self.clocks.len(), self.link_free.len());
        if ck.clocks.len() != ranks || ck.link_free.len() != nodes {
            return Err(format!(
                "wire checkpoint has {} clocks and {} NICs; \
                 the wire has {ranks} ranks on {nodes} nodes",
                ck.clocks.len(),
                ck.link_free.len(),
            ));
        }
        self.clocks.clone_from(&ck.clocks);
        self.link_free.clone_from(&ck.link_free);
        self.shared_free = ck.shared_free;
        self.stats = ck.stats;
        Ok(())
    }
}

/// The mutable half of a [`WireState`], captured at a point in virtual
/// time: per-rank clocks, per-node NIC occupancy, the shared-medium cursor,
/// and the traffic counters. Produced by
/// [`WireState::checkpoint`], consumed by [`WireState::restore_checkpoint`].
#[derive(Clone, Debug, PartialEq)]
pub struct WireCheckpoint {
    /// Virtual clock per rank, seconds.
    pub clocks: Vec<f64>,
    /// Time each node's NIC becomes free.
    pub link_free: Vec<f64>,
    /// Time the shared medium becomes free (Fast-Ethernet mode).
    pub shared_free: f64,
    /// Aggregate traffic counters at capture time.
    pub stats: TrafficStats,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wire(net: NetworkModel, ranks: usize) -> WireState {
        // one rank per node
        WireState::new(net, (0..ranks).collect(), ranks)
    }

    fn wire2() -> WireState {
        wire(NetworkModel::myrinet(), 2)
    }

    /// Send `bytes` from `from` to `to` and receive it at once.
    fn deliver(w: &mut WireState, from: usize, to: usize, bytes: u64) {
        let stamp = w.charge_send(from, to, bytes, 0.0);
        w.observe_delivery(to, stamp);
    }

    #[test]
    fn receiver_clock_advances_to_delivery() {
        let mut w = wire2();
        w.advance(0, 1.0);
        let stamp = w.charge_send(0, 1, 160_000_000, 0.0); // 1s of occupancy on Myrinet
        assert_eq!(w.now(1), 0.0);
        assert!(w.observe_delivery(1, stamp));
        // ≈ 1.0 (sender clock) + per_message_cpu + 1.0 occupancy + latency
        assert!(w.now(1) > 2.0 && w.now(1) < 2.1, "got {}", w.now(1));
        // A receiver already past the stamp does not move.
        assert!(!w.observe_delivery(1, stamp));
    }

    #[test]
    fn sender_blocks_for_occupancy() {
        let mut w = wire2();
        w.charge_send(0, 1, 160_000_000, 0.0);
        assert!(w.now(0) >= 1.0, "blocking send occupies sender, got {}", w.now(0));
    }

    #[test]
    fn link_contention_serializes_into_one_node() {
        // three ranks on three nodes; 1 and 2 both ship 1s of data to 0.
        let mut w = wire(NetworkModel::myrinet(), 3);
        let a = w.charge_send(1, 0, 160_000_000, 0.0);
        let b = w.charge_send(2, 0, 160_000_000, 0.0);
        w.observe_delivery(0, a);
        w.observe_delivery(0, b);
        // The second transfer had to wait for rank 0's link.
        assert!(w.now(0) >= 2.0, "ingress link must serialize, got {}", w.now(0));
    }

    #[test]
    fn switched_fabric_allows_disjoint_pairs_in_parallel() {
        // ranks 0->1 and 2->3 on four nodes can overlap on Myrinet.
        let mut w = wire(NetworkModel::myrinet(), 4);
        deliver(&mut w, 0, 1, 160_000_000);
        deliver(&mut w, 2, 3, 160_000_000);
        assert!(w.now(1) < 1.1 && w.now(3) < 1.1, "disjoint transfers overlap");
    }

    #[test]
    fn shared_medium_serializes_everything() {
        let mut w = wire(NetworkModel::fast_ethernet_hub(), 4);
        deliver(&mut w, 0, 1, 12_500_000); // 1s on FE
        deliver(&mut w, 2, 3, 12_500_000);
        assert!(w.now(3) >= 2.0, "shared medium must serialize, got {}", w.now(3));
    }

    #[test]
    fn same_rank_send_is_free() {
        let mut w = wire2();
        let stamp = w.charge_send(0, 0, 1 << 30, 0.0);
        assert_eq!(w.now(0), 0.0);
        assert!(!w.observe_delivery(0, stamp));
        assert_eq!(w.now(0), 0.0);
    }

    #[test]
    fn barrier_aligns_clocks() {
        let mut w = wire(NetworkModel::myrinet(), 3);
        w.advance(0, 5.0);
        w.advance(1, 1.0);
        w.barrier(&[0, 1, 2]);
        let t = w.now(0);
        assert!(t >= 5.0);
        assert_eq!(w.now(1), t);
        assert_eq!(w.now(2), t);
    }

    #[test]
    fn stats_accumulate_and_reset() {
        let mut w = wire2();
        let fresh = w.checkpoint();
        w.charge_send(0, 1, 100, 0.0);
        w.charge_send(0, 1, 50, 0.0);
        assert_eq!(w.stats().messages, 2);
        assert_eq!(w.stats().payload_bytes, 150);
        // Rewinding to a checkpoint is the only way counters go back.
        w.restore_checkpoint(&fresh).expect("same wire");
        assert_eq!(w.stats(), TrafficStats::default());
    }

    #[test]
    fn extra_delay_postpones_delivery_without_occupying_sender() {
        let mut plain = wire2();
        let on_time = plain.charge_send(0, 1, 4096, 0.0);
        let mut delayed = wire2();
        let late = delayed.charge_send(0, 1, 4096, 0.25);
        // Sender-side cost identical; only the delivery stamp shifts.
        assert_eq!(plain.now(0).to_bits(), delayed.now(0).to_bits());
        assert!((late - on_time - 0.25).abs() < 1e-12);
    }

    /// The sequence the checkpoint and determinism tests drive.
    fn drive(w: &mut WireState) {
        w.advance(0, 0.123);
        deliver(w, 0, 1, 4096);
        w.barrier(&[0, 1]);
    }

    #[test]
    fn checkpoint_rewinds_clocks_and_counters_exactly() {
        let mut w = wire2();
        drive(&mut w);
        let ck = w.checkpoint();
        let (t0, t1, stats) = (w.now(0), w.now(1), w.stats());
        // Diverge, then rewind: every observable must come back bit-equal.
        deliver(&mut w, 1, 0, 65536);
        w.advance(0, 9.0);
        w.restore_checkpoint(&ck).expect("same wire");
        assert_eq!(w.now(0).to_bits(), t0.to_bits());
        assert_eq!(w.now(1).to_bits(), t1.to_bits());
        assert_eq!(w.stats(), stats);
        assert_eq!(w.checkpoint(), ck);
        // Replay after restore charges identical costs.
        let mut fresh = wire2();
        drive(&mut fresh);
        let a = w.charge_send(0, 1, 64, 0.0);
        let b = fresh.charge_send(0, 1, 64, 0.0);
        assert_eq!(a.to_bits(), b.to_bits());
        assert_eq!(w.now(0).to_bits(), fresh.now(0).to_bits());
        assert_eq!(w.makespan().to_bits(), fresh.makespan().to_bits());
    }

    #[test]
    fn a_checkpoint_of_another_shape_is_refused_untouched() {
        let mut w = wire2();
        drive(&mut w);
        let before = w.checkpoint();
        let mut short_clock = before.clone();
        short_clock.clocks.pop();
        let mut extra_nic = before.clone();
        extra_nic.link_free.push(0.0);
        for mut bad in [short_clock, extra_nic] {
            bad.shared_free = 99.0;
            assert!(w.restore_checkpoint(&bad).is_err());
            assert_eq!(w.checkpoint(), before, "a refused restore wrote something");
        }
    }

    #[test]
    fn determinism() {
        let run = || {
            let mut w = wire2();
            drive(&mut w);
            w.makespan()
        };
        assert_eq!(run(), run());
    }
}
