//! # ids-bench — experiment harness
//!
//! Every paper table, figure and ablation is one function in
//! [`experiments`], run by the `repro` binary; its stdout, which depends
//! only on the code, is committed as `bench_results/repro.txt`. Also the
//! wall-clock `perf` benchmark (`src/bin/perf/`) and std-only
//! micro-benchmarks (`benches/`). Shared helpers live here.

#![warn(unreachable_pub)]

pub mod experiments;
pub mod ncnpr_setup;
pub mod reporting;
