//! `psa-desim` — the virtual-time executor.
//!
//! A deterministic simulation of the paper's frame protocol on a modeled
//! cluster. The shared protocol engine in `psa_runtime::protocol`
//! interleaves the ranks itself, in a fixed order; this crate gives it a
//! message fabric ([`fabric`]): one FIFO per directed link, every message
//! stamped with the delivery time the `netsim::WireState` cost arithmetic
//! charged, every receive moving the receiver's clock up to that stamp.
//! Virtual time lives in the per-rank clocks — there is no global event
//! order to schedule. The executor ([`exec`]) builds the fabric from the
//! cluster's network model and hands it to the engine; the crate adds no
//! protocol copy. It is the workspace's only virtual-time executor: tables
//! 1–3, the chaos matrix and every BENCH artifact run on it.
//!
//! [`queue`] is a `(time, seq)` min-heap no executor uses any more: it
//! stays, untouched, only because the wall-clock benchmark in `perf/`
//! still times it (`desim.queue.push_pop_ns`), and goes with that probe.
//!
//! Guarantees, in order of importance:
//!
//! 1. **Pinned results** — `EventSim` reproduces, bit for bit, the
//!    fingerprints the executors it replaced produced (same engine, same
//!    `WireState` arithmetic, per-link FIFO). `tests/event_parity.rs` pins
//!    them as a golden table over the full scenario matrix at 4–16 ranks.
//! 2. **Determinism** — runs are a pure function of `(seed, plan, config)`:
//!    ranks step in a fixed order and a link delivers in send order.
//! 3. **Scale** — in-flight traffic waits in one FIFO inbox per receiving
//!    rank (a receive in the engine's rank-ordered sweeps is a pop from
//!    its front), per-link state exists only for links that perturb
//!    traffic, a domain broadcast hands every
//!    calculator one shared map, and a (rank, system) pair that holds no
//!    particle costs a counter read where it used to cost a walk over its
//!    buckets and actions, so 1,024 calculators × 100+ systems sweep in
//!    seconds (the BENCH_5 tables; use sparse exchange).

pub mod exec;
pub mod fabric;
pub mod queue;

pub use exec::EventSim;
pub use fabric::{EventFabric, SimStats};
pub use queue::EventQueue;
