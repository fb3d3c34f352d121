//! # ids-feature — the feature store
//!
//! The third face of the paper's 3-in-1 datastore: typed feature columns
//! keyed by entity id. The NCNPR pipeline stores per-compound descriptors
//! (molecular weight, logP, pIC50 assay values) and per-protein metadata
//! (sequence length, reviewed flag) here so UDFs can fetch features without
//! touching the graph.

// Typed errors, never panics, outside tests (DESIGN.md §5i).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![forbid(unsafe_code)]

pub mod store;

pub use store::{FeatureStore, FeatureValue, SchemaError};
