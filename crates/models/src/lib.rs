//! # ids-models — the IDS model repository
//!
//! IDS "incorporates a model repository for User-Defined Functions (UDFs)
//! and pre-trained AI models" (paper §1). The NCNPR workflow chains four of
//! them, intentionally ordered by increasing cost and pruning power
//! (§5.1): Smith–Waterman similarity (< 1 ms), pIC50 (10 µs), DTBA
//! prediction (tenths of a second), and AutoDock Vina docking (tens of
//! seconds per ligand). This crate implements each one:
//!
//! * [`smith_waterman`] — exact affine-gap Smith–Waterman local alignment
//!   with BLOSUM62 (implemented for real; the paper uses the SSW SIMD
//!   library): a striped eight-lane `i16` kernel behind a prepare-once /
//!   align-many split like SSW's, with the scalar Gotoh loop for inputs
//!   whose scores could leave `i16` range.
//! * [`pic50`] — compound-potency computation and a deterministic synthetic
//!   assay model.
//! * [`dtba`] — a from-scratch DeepDTA-style drug–target binding-affinity
//!   network: label-encoded protein + SMILES branches, 1-D convolutions,
//!   global max pooling, and a dense head. Substitutes for the paper's
//!   TensorFlow model.
//! * [`docking`] — a rigid-ligand blind-docking simulator with a Vina-like
//!   empirical scoring function and Monte-Carlo pose search. Substitutes
//!   for AutoDock Vina.
//! * [`structure_pred`] — a deterministic sequence → 3-D backbone predictor
//!   (Chou–Fasman secondary structure + idealized geometry) standing in for
//!   AlphaFold.
//! * [`molgen`] — a seeded fragment-grammar molecular generator standing in
//!   for MolGAN.
//! * [`repo`] — the model repository itself: a named, versioned registry.
//! * [`cost`] — the virtual-cost calibration layer tying every model's
//!   execution to the paper's published per-op latencies.
//!
//! Every model is **deterministic in its inputs** (seeded by content hash),
//! which is what makes the paper's result caching sound: a cache hit must be
//! indistinguishable from re-execution.

// Typed errors, never panics, outside tests (DESIGN.md §5i).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

pub mod cost;
pub mod docking;
pub mod dtba;
pub mod molgen;
pub mod pic50;
pub mod repo;
pub mod smith_waterman;
pub mod structure_pred;

pub use cost::CostModel;
pub use docking::{DockingEngine, DockingParams, DockingResult, PreparedReceptor};
pub use dtba::DtbaModel;
pub use molgen::MoleculeGenerator;
pub use repo::{ModelKind, ModelMeta, ModelRepository};
pub use smith_waterman::{PreparedQuery, SmithWaterman, SwParams};
pub use structure_pred::StructurePredictor;
