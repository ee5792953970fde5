//! Message-passing transports for the animation model.
//!
//! Two transports share one message vocabulary:
//!
//! * [`WireState`] — the deterministic, single-threaded virtual wire:
//!   per-rank virtual clocks and a network cost model from `cluster-sim`.
//!   The virtual-time executor in `psa-desim` interleaves rank execution
//!   itself and builds its fabric on this wire to account for every byte
//!   the paper's protocol would put on Myrinet or Fast-Ethernet.
//!   Determinism is total: same seed, same tables.
//! * [`ThreadNet`] — a channel-per-pair SPMD fabric for running the same
//!   protocol on real host threads with wall-clock timing (the
//!   demonstration that the library actually parallelizes, not only
//!   simulates).
//!
//! Messages implement [`WireSize`] so the virtual wire can charge
//! occupancy without serializing anything.
//!
//! A panicking rank thread deadlocks its peers instead of failing the run
//! report, so the transports return typed errors and the compiler denies
//! every panic path outside their tests.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

pub mod fault;
pub mod thread_net;
pub mod virtual_net;

pub use fault::{
    FailedSend, FaultPlan, FaultPolicy, FaultyThreadEndpoint, LinkFault, PlanInjector, RankFault,
    SendFate,
};
pub use thread_net::{ThreadEndpoint, ThreadNet, TransportError};
pub use virtual_net::{TrafficStats, WireCheckpoint, WireState};

/// Bytes a message would occupy on the wire.
///
/// Implementations should report *payload* bytes; the fabric adds protocol
/// framing itself.
pub trait WireSize {
    fn wire_bytes(&self) -> u64;
}

/// Fixed framing overhead charged per message (headers, MPI envelope).
pub const FRAME_OVERHEAD_BYTES: u64 = 64;

impl WireSize for () {
    fn wire_bytes(&self) -> u64 {
        0
    }
}

impl WireSize for Vec<u8> {
    fn wire_bytes(&self) -> u64 {
        self.len() as u64
    }
}
