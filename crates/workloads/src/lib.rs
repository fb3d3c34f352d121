//! # ids-workloads — synthetic datasets and workload builders
//!
//! The paper's knowledge graph integrates seven public life-science
//! sources (Table 1, >100 B facts, ≈ 30 TB). Those exact datasets are
//! neither redistributable nor host-sized; this crate generates synthetic
//! datasets with the same **schema, shape, and relative proportions** at a
//! configurable scale factor:
//!
//! * [`sources`] — one generator per Table 1 source (UniProt, ChEMBL-RDF,
//!   Bio2RDF, OrthoDB, Biomodels, Biosamples, Reactome), each reporting
//!   the triple counts and estimated raw sizes that regenerate the table.
//! * [`ncnpr`] — the NCNPR experiment graph: a target protein (P29274
//!   stand-in), controlled-divergence protein families (so Smith–Waterman
//!   selectivity thresholds cut predictable candidate bands, reproducing
//!   Table 2's compound-count blow-up), inhibitor compounds with valid
//!   SMILES, and assay edges.
//! * [`traffic`] — deterministic open-loop production traffic: Poisson
//!   arrivals × Zipf tenant popularity with SLO-class striping, for the
//!   overload ablation and chaos suites.
//! * [`client`] — service clients: a retrying submitter that honors
//!   `retry_after` hints with capped back-off on the virtual clock, and
//!   the open-loop driver that replays a [`traffic`] schedule.

// No `unwrap`/`expect` outside tests (DESIGN.md §5i).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

pub mod client;
pub mod ncnpr;
pub mod sources;
pub mod traffic;

pub use client::{
    drive_open_loop, submit_with_retry, OpenLoopReport, RefusalEvent, RetryOutcome, RetryPolicy,
};
pub use ncnpr::{NcnprConfig, NcnprDataset};
pub use sources::{SourceKind, SourceStats};
pub use traffic::{class_of, generate, Arrival, TrafficConfig};
