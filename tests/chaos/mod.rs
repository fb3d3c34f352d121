//! The seed matrix of the chaos suites (`tests/chaos_*.rs`).
//!
//! Every suite runs its whole matrix in one process: each seed here,
//! crossed with each value of the suite's own axis (replication factor,
//! recovery schedule, client count, arrival shape or re-plan threshold).
//! A failure message names the seed, and the axis value where the suite
//! has one.

/// The seeds of every fault, straggler and traffic schedule.
pub const SEEDS: std::ops::RangeInclusive<u64> = 1..=8;
