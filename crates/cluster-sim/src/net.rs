//! Network cost models.
//!
//! A first-order α+β model: a message of `b` bytes costs
//! `latency + b / bandwidth` of wire time, plus per-message CPU overhead on
//! the sender (protocol stack). Two refinements carry the paper's
//! Myrinet-vs-Fast-Ethernet signal:
//!
//! * **Per-node link occupancy** — a node's NIC serializes its transfers.
//!   On switched Myrinet different node pairs communicate concurrently, but
//!   eight calculators shipping frames into the image generator still queue
//!   at *its* link; this is what bends the speed-up curves.
//! * **Shared medium** — the paper's Fast-Ethernet behaves like a single
//!   collision domain under the all-to-one traffic of frame generation; we
//!   model it as one global link every transfer must occupy.

/// How the nodes are wired together, for latency purposes.
///
/// The paper's 8-node clusters hang off one switch ([`Topology::Flat`]:
/// every pair is one hop). Scaling studies past a few dozen nodes need a
/// multi-stage fabric: [`Topology::FatTree`] groups `radix` nodes per edge
/// switch and charges extra hops (edge–spine–edge) for traffic that leaves
/// the group. Bandwidth is assumed fully provisioned (no oversubscription);
/// only latency is topology-dependent.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Topology {
    /// Single switch: uniform one-hop latency between all node pairs.
    Flat,
    /// Two-level fat tree: nodes `k*radix .. (k+1)*radix` share an edge
    /// switch; inter-group messages traverse edge→spine→edge (3 hops).
    FatTree { radix: usize },
}

/// A network fabric model.
#[derive(Clone, Debug, PartialEq)]
pub struct NetworkModel {
    pub name: String,
    /// One-way message latency, seconds.
    pub latency: f64,
    /// Sustained bandwidth, bytes/second.
    pub bandwidth: f64,
    /// Sender CPU time per message, seconds (stack traversal, interrupt).
    pub per_message_cpu: f64,
    /// If true, all transfers serialize on a single shared medium
    /// (Fast-Ethernet hub-like behaviour); if false, only per-node links
    /// serialize (switched fabric).
    pub shared_medium: bool,
    /// Node wiring; [`Topology::Flat`] reproduces the paper exactly.
    pub topology: Topology,
}

impl NetworkModel {
    /// Myrinet (Boden et al. 1995): ~9 µs latency, 1.28 Gbit/s full duplex,
    /// OS-bypass so per-message CPU is small.
    pub fn myrinet() -> Self {
        NetworkModel {
            name: "Myrinet".into(),
            latency: 9.0e-6,
            bandwidth: 160.0e6,
            per_message_cpu: 2.0e-6,
            shared_medium: false,
            topology: Topology::Flat,
        }
    }

    /// Fast-Ethernet (switched): ~70 µs latency through the kernel TCP
    /// stack, 100 Mbit/s per link, heavier per-message CPU. Per-node links
    /// still serialize, which is what chokes the all-to-one frame traffic.
    pub fn fast_ethernet() -> Self {
        NetworkModel {
            name: "Fast-Ethernet".into(),
            latency: 70.0e-6,
            bandwidth: 12.5e6,
            per_message_cpu: 25.0e-6,
            shared_medium: false,
            topology: Topology::Flat,
        }
    }

    /// Fast-Ethernet through a hub (single collision domain) — used by the
    /// network ablation bench to show why a switched fabric matters.
    pub fn fast_ethernet_hub() -> Self {
        NetworkModel {
            name: "Fast-Ethernet (hub)".into(),
            shared_medium: true,
            ..Self::fast_ethernet()
        }
    }

    /// An idealized zero-cost network (useful for isolating compute effects
    /// in ablation benches).
    pub fn ideal() -> Self {
        NetworkModel {
            name: "ideal".into(),
            latency: 0.0,
            bandwidth: f64::INFINITY,
            per_message_cpu: 0.0,
            shared_medium: false,
            topology: Topology::Flat,
        }
    }

    /// The same model rewired over `topology` (builder style).
    pub fn with_topology(mut self, topology: Topology) -> Self {
        self.topology = topology;
        self
    }

    /// Pure wire occupancy time for `bytes` (excludes latency).
    pub fn occupancy(&self, bytes: u64) -> f64 {
        bytes as f64 / self.bandwidth
    }

    /// One-way latency between two *nodes* under the configured topology.
    /// [`Topology::Flat`] returns `latency` exactly (bit-identical to the
    /// pre-topology model); a fat tree charges 3 hops across groups.
    pub fn latency_between(&self, node_a: usize, node_b: usize) -> f64 {
        match self.topology {
            Topology::Flat => self.latency,
            Topology::FatTree { radix } => {
                let radix = radix.max(1);
                if node_a / radix == node_b / radix {
                    self.latency
                } else {
                    3.0 * self.latency
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn myrinet_beats_fast_ethernet() {
        let m = NetworkModel::myrinet();
        let fe = NetworkModel::fast_ethernet();
        for bytes in [64u64, 4096, 1 << 20] {
            assert!(m.latency + m.occupancy(bytes) < fe.latency + fe.occupancy(bytes));
        }
    }

    #[test]
    fn message_time_composition() {
        let m = NetworkModel::myrinet();
        let t = m.latency + m.occupancy(160_000_000);
        assert!((t - (9.0e-6 + 1.0)).abs() < 1e-9, "1s of occupancy plus latency");
    }

    #[test]
    fn ideal_network_is_free() {
        let n = NetworkModel::ideal();
        assert_eq!(n.latency, 0.0);
        assert_eq!(n.occupancy(1 << 30), 0.0);
    }

    #[test]
    fn medium_flags_match_fabric() {
        assert!(!NetworkModel::myrinet().shared_medium);
        assert!(!NetworkModel::fast_ethernet().shared_medium);
        assert!(NetworkModel::fast_ethernet_hub().shared_medium);
    }

    #[test]
    fn flat_topology_latency_is_uniform() {
        let m = NetworkModel::myrinet();
        assert_eq!(m.topology, Topology::Flat);
        // Bit-identical to the plain latency: the pre-topology model.
        assert_eq!(m.latency_between(0, 0).to_bits(), m.latency.to_bits());
        assert_eq!(m.latency_between(0, 77).to_bits(), m.latency.to_bits());
    }

    #[test]
    fn fat_tree_charges_extra_hops_across_groups() {
        let m = NetworkModel::myrinet().with_topology(Topology::FatTree { radix: 4 });
        // Same edge switch: one hop.
        assert_eq!(m.latency_between(0, 3), m.latency);
        assert_eq!(m.latency_between(5, 6), m.latency);
        // Across groups: edge-spine-edge.
        assert_eq!(m.latency_between(3, 4), 3.0 * m.latency);
        assert_eq!(m.latency_between(0, 63), 3.0 * m.latency);
        // Degenerate radix never divides by zero.
        let z = NetworkModel::myrinet().with_topology(Topology::FatTree { radix: 0 });
        assert_eq!(z.latency_between(1, 2), 3.0 * z.latency);
    }
}
