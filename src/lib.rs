//! # ids — umbrella crate for the Intelligent Data Search framework
//!
//! Re-exports every IDS subsystem under one roof so examples, integration
//! tests, and downstream users can depend on a single crate. See the
//! individual crates for detailed documentation:
//!
//! * [`simrt`] — virtual cluster runtime (ranks, clocks, collectives)
//! * [`chem`] — protein / small-molecule substrate
//! * [`models`] — the model repository (Smith–Waterman, DTBA, docking, …)
//! * [`graph`] — partitioned in-memory triple store
//! * [`vector`] — vector store and similarity search
//! * [`feature`] — feature store
//! * [`udf`] — UDF registry, profiling, reordering, re-balancing
//! * [`cache`] — global shared client-side cache
//! * [`core`] — the IDS engine: datastore, IQL, planner, workflows
//! * [`obs`] — metrics registry, virtual-clock spans, Prometheus exposition
//! * [`serve`] — multi-tenant query service: sessions, admission control,
//!   fair-share scheduling, semantic result reuse
//! * [`workloads`] — synthetic Table-1-shaped dataset generators

// No `unwrap`/`expect` outside tests (DESIGN.md §5i).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

pub use ids_cache as cache;
pub use ids_chem as chem;
pub use ids_core as core;
pub use ids_feature as feature;
pub use ids_graph as graph;
pub use ids_models as models;
pub use ids_obs as obs;
pub use ids_serve as serve;
pub use ids_simrt as simrt;
pub use ids_udf as udf;
pub use ids_vector as vector;
pub use ids_workloads as workloads;

/// Crate version of the umbrella package.
pub const VERSION: &str = env!("CARGO_PKG_VERSION");
