//! # ids-udf — user-defined functions, profiling, and adaptive planning
//!
//! This crate implements §2.3–2.4 of the paper — the pieces that make IDS
//! more than a graph database:
//!
//! * [`value`] — the dynamic values flowing between the query engine and
//!   UDFs.
//! * [`registry`] — the UDF registry: statically linked functions (tracked
//!   by unique name) and dynamically loaded modules (tracked by module +
//!   method name) with a module cache and explicit reload, mirroring the
//!   paper's Python-module lifecycle. The dynamic half
//!   ([`UdfRegistry::register_dynamic`], [`UdfRegistry::reload_dynamic`])
//!   is an API face of §2.3 that only tests exercise so far.
//! * [`profile`] — per-rank UDF profiling: execution count, total execution
//!   time, and rejection count, "continually updated through the lifetime
//!   of a running IDS instance" (§2.4.1), kept in one table per instance.
//! * [`expr`] — FILTER expression trees over bindings, with UDF calls as
//!   first-class leaves; evaluation charges virtual cost and feeds the
//!   profiler.
//! * [`memo`] — an instance's prepared UDF arguments: a prepared UDF's
//!   `prepare` for each argument position runs once per distinct
//!   dictionary id at that position for the instance's life.
//! * [`reorder`] — §2.4.3: chains of conditionals re-ordered in ascending
//!   estimated evaluation time, with higher-rejection UDFs prioritized when
//!   costs are similar.
//! * [`rebalance`] — §2.4.2: solution re-balancing by measured per-rank
//!   throughput instead of raw solution counts, including the ≈20 %
//!   similar-throughput short-circuit.

// Typed errors, never panics, outside tests (DESIGN.md §5i).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

pub mod expr;
pub mod memo;
pub mod profile;
pub mod rebalance;
pub mod registry;
pub mod reorder;
pub mod value;

pub use expr::{Bindings, EvalError, Expr};
pub use memo::{ArgMemo, StageMemo};
pub use profile::{ProfileRow, ProfileRowMut, ProfileTable, StageColumns, UdfProfile};
pub use rebalance::{estimate_completion, plan_count_based, plan_throughput_based, RebalancePlan};
pub use registry::{UdfKind, UdfOutput, UdfRegistry};
pub use reorder::{order_by_estimates, order_conjuncts};
pub use value::{nan_comparison_count, UdfValue};
