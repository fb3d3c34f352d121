//! # ids-simrt — virtual cluster runtime
//!
//! The paper evaluates IDS on an HPE Cray EX system with 64–256 nodes, 32 MPI
//! ranks per node (2048–8192 ranks), connected by Slingshot. This crate
//! replaces that hardware with a deterministic *cluster simulator*:
//!
//! * **Virtual ranks** — thousands of logical ranks are multiplexed onto the
//!   host's cores by a resident shard pool ([`pool`]): one worker per core,
//!   each claiming shards from its own span and stealing half of the
//!   fullest span when it runs dry, results returned in shard order. Rank
//!   programs execute real Rust code.
//! * **Virtual clocks** — each rank carries a clock in *virtual seconds*.
//!   Compute kernels charge their cost (from calibrated cost models) to the
//!   clock of the rank that ran them; collectives synchronize clocks exactly
//!   the way an MPI barrier would (max over participants, plus a network
//!   cost term). Reported latencies are therefore independent of how many
//!   physical cores the simulation happens to run on, and reproduce the
//!   slowest-rank-bound dynamics the paper analyzes.
//! * **BSP phase structure** — execution alternates compute phases (all
//!   ranks run independently) and collectives (barrier / allreduce /
//!   allgather / all-to-all), mirroring how the Cray Graph Engine structures
//!   scans, joins, merges, and solution re-distribution.
//!
//! The network cost model is a classic α–β (latency + bytes/bandwidth) model
//! with distinct intra-node and inter-node parameters, defaulting to
//! Slingshot-like numbers.

// No `unwrap`/`expect` outside tests (DESIGN.md §5i).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
// One `unsafe` block: the lifetime erasure of a phase's worker loop in
// the resident shard pool (`pool.rs`, DESIGN.md §5n).
#![deny(unsafe_code)]

pub mod clock;
pub mod cluster;
pub mod collective;
pub mod faults;
pub mod net;
pub mod pool;
pub mod rng;
pub mod sync;
pub mod topology;

pub use clock::VirtualClock;
pub use cluster::{Cluster, ExchangeCost, RankCtx, SpeculationReport};
pub use collective::ReduceOp;
pub use faults::{FaultConfig, FaultPlane, LinkFactors, PermanentCrashConfig};
pub use net::{DeviceModel, NetworkModel};
pub use pool::Fanout;
pub use topology::{NodeId, RankId, Topology};
