//! The IPDPS'05 animation model: processes, frame protocol, load balancing.
//!
//! This crate turns the sequential building blocks of `psa-core` into the
//! paper's distributed model:
//!
//! * [`msg`] — the message vocabulary of the frame protocol (Figure 2);
//! * [`balance`] — the load-balancing decision kernel (§3.2.5 rules,
//!   adaptive minimum transfer, the [`balance::Balancer`] trait) as pure,
//!   heavily-tested functions;
//! * [`balancers`] — the pluggable strategies behind the trait: the
//!   paper's centralized neighbor-pair walk, decentralized half-excess,
//!   damped diffusion, and hierarchical/SFC group balancing;
//! * [`scene`] — a simulation scene: systems, action lists, external
//!   objects;
//! * [`config`] — run configuration (finite/infinite space, SLB/DLB,
//!   exchange fan-out, frame counts);
//! * [`protocol`] — the single shared implementation of the Figure-2 frame
//!   protocol: transport-free calculator and manager cores (state and
//!   transitions, written once) under two drivers — the
//!   [`protocol::Engine`] every interleaved executor steps (over any
//!   [`protocol::Fabric`]) and the per-role SPMD bodies the threaded
//!   executor spawns. The deterministic virtual-time executor that
//!   reproduces the paper's cluster timing is `psa-desim`'s `EventSim`,
//!   which runs this engine over its FIFO-link fabric;
//! * [`sequential`] — the sequential baseline the paper computes speed-ups
//!   against;
//! * [`threaded`] — an SPMD executor over real host threads (wall-clock
//!   demonstration that the protocol actually parallelizes);
//! * [`report`] — run reports: per-frame stats, migration volumes, traffic,
//!   and the virtual makespan the tables are computed from;
//! * [`trace`] — protocol event traces used to assert the Figure-2
//!   ordering in tests.

pub mod balance;
pub mod balancers;
pub mod checkpoint;
pub mod config;
pub mod msg;
pub mod protocol;
pub mod report;
pub mod scene;
pub mod sequential;
pub mod threaded;
pub mod trace;

pub use balance::{Balancer, BalancerConfig, LoadInfo, Order, Transfer};
pub use balancers::strategy_for;
pub use checkpoint::{EngineSnapshot, FabricCheckpoint, RecoveryEvent};
pub use config::{BalanceMode, ExchangeMode, LoadMetric, RunConfig, SpaceMode};
pub use msg::ProtocolError;
pub use protocol::{donation_cut, node_layout, Engine, Fabric};
pub use report::RunReport;
pub use scene::{Scene, SystemSetup};
pub use sequential::run_sequential;
pub use threaded::{run_threaded, run_threaded_traced};
