//! `psa-desim` — the event-driven virtual executor.
//!
//! A deterministic discrete-event simulation core for the paper's frame
//! protocol: a binary-heap event loop over virtual time with stable
//! `(time, seq)` tie-breaking ([`queue`]) and a message fabric that turns
//! every send into a scheduled arrival event charged through the
//! `netsim::WireState` cost arithmetic ([`fabric`]). The executor itself ([`exec`]) drives the one shared
//! protocol engine in `psa_runtime::protocol` — this crate adds no protocol
//! copy, only a fabric. It is the workspace's only virtual-time executor:
//! tables 1–3, the chaos matrix and every BENCH artifact run on it.
//!
//! Guarantees, in order of importance:
//!
//! 1. **Pinned results** — `EventSim` reproduces, bit for bit, the
//!    fingerprints the queue-stepped executor it replaced produced (same
//!    engine, same `WireState` arithmetic, per-link FIFO).
//!    `tests/event_parity.rs` pins them as a golden table over the full
//!    scenario matrix at 4–16 ranks.
//! 2. **Determinism** — runs are a pure function of `(seed, plan, config)`;
//!    the event heap's pop order is invariant under insertion order.
//! 3. **Scale** — per-link state is sparse, so 1,024 calculators × 100+
//!    systems sweep in seconds (the BENCH_5 tables; use sparse exchange).

pub mod exec;
pub mod fabric;
pub mod queue;

pub use exec::EventSim;
pub use fabric::{EventFabric, SimStats};
pub use queue::EventQueue;
