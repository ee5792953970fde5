//! `psa-chaos` — deterministic fault injection for the animation model.
//!
//! The paper's protocol (Figure 2) assumes every process answers; a real
//! heterogeneous cluster does not. This crate stress-tests the hardened
//! executors against that gap:
//!
//! * [`scenario`] — named fault shapes (crash, stall, slow node, lossy or
//!   degraded links) compiled into seeded `netsim::FaultPlan`s;
//! * [`matrix`] — the scenario-matrix runner: each (workload, scenario)
//!   cell simulates twice, checks every frame rendered (the engine checks
//!   each frame's Figure-2 order itself: faults may slow phases down but
//!   never reorder them), crashes were declared and absorbed, and gates on
//!   the replay fingerprints being byte-identical;
//! * [`recovery`] — the recovered-cell gate: the same kill scenarios with
//!   engine checkpointing on, gating on zero deaths, zero lost particles,
//!   and the recovered run fingerprinting byte-identical to the
//!   crash-free reference;
//! * [`sessions`] — pool-level chaos against `psa-sessions`: a worker
//!   lane dies mid-dispatch, the victim session is re-queued (resuming
//!   from its last pool checkpoint), and the gate checks completion,
//!   solo-fingerprint parity under the fault, bounded frame loss, and
//!   byte-identical replay of the whole pool run;
//! * [`transcript`] — runs all three and prints the table `bench chaos`
//!   shows and `tests/golden/chaos_*.txt` pin.
//!
//! Determinism discipline is identical to the rest of the workspace: plans
//! derive from `psa_math::Rng64` streams, delivery draws inside a run come
//! from per-link streams, and fault delays are charged as virtual ticks —
//! so a chaotic run replays exactly, which is what makes its failures
//! debuggable.

pub mod matrix;
pub mod recovery;
pub mod scenario;
pub mod sessions;
pub mod transcript;

pub use matrix::{run_case, run_matrix, CaseOutcome, MatrixConfig, CHAOS_WORKLOADS};
pub use psa_workloads::Workload;
pub use recovery::{run_recovery_case, run_recovery_matrix, RecoveryConfig, RecoveryOutcome};
pub use scenario::{full_set, smoke_set, Scenario};
pub use sessions::{run_session_chaos, SessionChaosConfig, SessionChaosOutcome};
pub use transcript::print_chaos;
