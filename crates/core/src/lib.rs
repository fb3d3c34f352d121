//! # ids-core — the Intelligent Data Search framework
//!
//! The paper's primary contribution: a unified engine that lets scientists
//! "compose expressive queries that both retrieve massive, multi-modal
//! datasets and invoke complex computational models" (§1). This crate ties
//! every substrate together:
//!
//! * [`datastore`] — the 3-in-1 datastore: knowledge graph
//!   (`ids-graph`), vector store (`ids-vector`), and feature store
//!   (`ids-feature`) behind one ingest/query surface.
//! * [`iql`] — the IDS Query Language: a SPARQL-flavoured surface with
//!   UDF calls in FILTER expressions and an `APPLY … AS ?var` stage for
//!   model invocation (lexer, recursive-descent parser, AST).
//! * [`binding`] — bridges solution rows to UDF bindings, decoding
//!   dictionary ids to typed values at the UDF boundary.
//! * [`engine`] — the distributed executor: BSP phases over the simulated
//!   cluster (scan → exchange → join → re-balance → filter → apply),
//!   charging virtual cost per rank and recording the per-stage breakdown
//!   Figures 4–5 are built from.
//! * [`planner`] — pattern ordering by cardinality estimates plus the
//!   §2.4 adaptive pieces (conjunct reordering, throughput re-balancing)
//!   delegated to `ids-udf`.
//! * [`prepared`] — the bounded, epoch-checked cache of prepared queries
//!   behind [`instance::IdsInstance::prepare_run`].
//! * [`instance`] — [`instance::IdsInstance`]: the launcher/client facade
//!   that owns the cluster, datastore, model repository, UDF registry,
//!   UDF profile table, and (optionally shared) global cache.
//! * [`workflow`] — the NCNPR drug-re-purposing workflow and the cached
//!   model-invocation helpers (docking results stashed in the global
//!   cache, §4).
//!
//! API faces no in-tree path calls yet, kept because the paper's
//! datastore offers them (PAPER.md §1): keyword search over literals
//! ([`Datastore::keyword_search`], [`Datastore::keyword_search_all`]) and
//! approximate vector search ([`Datastore::build_ann_index`],
//! [`Datastore::ann_search`], [`Datastore::vector_count`]).

// Typed errors, never panics, outside tests (DESIGN.md §5i).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

pub mod binding;
pub mod cost;
pub mod datastore;
pub mod engine;
pub mod explain;
pub mod instance;
pub mod iql;
pub mod planner;
pub mod prepared;
pub mod stats;
pub mod workflow;

pub use datastore::Datastore;
pub use engine::{
    DegradedKind, ErrorAnnotation, ExecError, ExecOptions, PlanRun, QueryOutcome, RecoveryReport,
    ReuseCheckpoint, ReusePlan, RunPhase, StageBreakdown, StepOutcome,
};
pub use instance::{IdsConfig, IdsInstance, QueryError};
pub use iql::ast::Query;
pub use prepared::Prepared;
pub use stats::StatsCatalog;
