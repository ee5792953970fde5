//! `psa-sessions` — the multi-tenant session scheduler.
//!
//! Everything below this crate simulates *one* animation run. A render
//! service does not get that luxury: hundreds of tenants submit seeded
//! runs concurrently, and the farm is a fixed pool of workers. This crate
//! is the layer in between — a deterministic scheduler that multiplexes
//! whole sessions over worker lanes without surrendering a single
//! guarantee the stack is built on:
//!
//! * **Admission is bounded** ([`admission`]): a session either starts,
//!   queues in a bounded queue, or is rejected with a typed
//!   [`AdmissionError`] — the pool's memory never grows with offered load.
//! * **Backpressure is per-tenant**: in-flight and backlog caps keep one
//!   tenant from draining the pool, enforced at admission and again at
//!   queue promotion.
//! * **Scheduling is cooperative** ([`manager`]): dispatches hand a
//!   session at most a few frames before it yields the lane, so long
//!   sessions never starve short ones.
//! * **State lives on the session's record**: a running session's
//!   engine, snapshot and report spines are one box, created when it takes
//!   an in-flight place and freed when it gives the place back, so a
//!   queued, finished or rejected session costs one pointer.
//! * **Determinism survives multiplexing** ([`session`]): session `k`
//!   runs under `Rng64::new(base).split(k)`, and its report is
//!   byte-identical to a solo run of that seed regardless of worker
//!   count, slice length, or what else the pool ran. The root
//!   `tests/session_parity.rs` suite pins this.
//!
//! Time here is *pool-virtual*: lanes advance by the virtual frame times
//! the sessions' own event-driven fabrics report, so throughput and
//! latency numbers (BENCH_7) are as reproducible as everything else.

#![deny(missing_docs)]

pub mod admission;
pub mod manager;
pub mod session;

pub use admission::{AdmissionConfig, AdmissionError, RejectReason, SlotStats};
pub use manager::{PoolConfig, PoolFault, PoolReport, SessionManager};
pub use session::{derive_session_seed, SessionId, SessionOutcome, SessionSpec, TenantId};
