//! # ids-feature — the feature store
//!
//! The third face of the paper's 3-in-1 datastore: typed feature columns
//! keyed by entity id. The NCNPR pipeline stores per-compound descriptors
//! (molecular weight, logP, pIC50 assay values) and per-protein metadata
//! (sequence length, reviewed flag) here so UDFs can fetch features without
//! touching the graph.
//!
//! The store's read operations ([`FeatureStore::get_f64`],
//! [`FeatureStore::get_batch`], [`FeatureStore::column_len`],
//! [`FeatureStore::feature_matrix`], [`FeatureStore::column_stats`]) are API
//! faces of the paper's feature store that no in-tree path calls yet.

// Typed errors, never panics, outside tests (DESIGN.md §5i).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

pub mod store;

pub use store::{FeatureStore, FeatureValue, SchemaError};
