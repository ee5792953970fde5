//! Per-phase observability for the frame protocol.
//!
//! The paper's whole argument rests on per-frame measurements: the §3.2.5
//! balancer consumes `(particle count, processing time)` pairs and every §5
//! table is a frame-time breakdown. This crate is the instrument: it
//! decomposes a run into the protocol phases of Figure 2 and records
//! per-rank, per-frame timings plus traffic/fault counters, without ever
//! feeding back into the simulation.
//!
//! Two clocks, one discipline, named by [`ClockKind`]:
//!
//! * `Virtual` — the deterministic executor's per-rank virtual clocks,
//!   which the executor reads and hands to the recorder. Bit-exact and
//!   fingerprint-safe.
//! * `Wall` — real elapsed time the threaded executor measures itself,
//!   behind its own audited wall-clock allow annotation; this crate never
//!   reads a wall clock.
//!
//! The quietness guarantee mirrors the fault layer's quiet-plan rule: a
//! disabled [`Recorder`] is a true no-op, and an *enabled* recorder only
//! reads clocks — it never advances one, never draws RNG, never sends a
//! message. An instrumented run must therefore produce a byte-identical
//! `RunReport` fingerprint to a bare run; `tests/observability.rs` in the
//! workspace root holds that gate for both executors.

pub mod clock;
pub mod phase;
pub mod recorder;
pub mod report;
pub mod session;

pub use clock::ClockKind;
pub use phase::{Phase, PHASES, PHASE_COUNT};
pub use recorder::{Counter, FaultEvent, FaultKind, Recorder, COUNTERS, COUNTER_COUNT};
pub use report::{FrameCounters, FrameTrace, TraceReport};
pub use session::SessionCounters;
