//! # ids-chem — bio/chemistry substrate
//!
//! The NCNPR workflow the paper evaluates operates on proteins (sequences
//! and 3-D structures) and small-molecule compounds (SMILES strings with
//! assay data). This crate implements that substrate from scratch:
//!
//! * [`aminoacid`] — the 20 proteinogenic amino acids with physicochemical
//!   properties (mass, hydropathy, secondary-structure propensities).
//! * [`sequence`] — protein sequences, FASTA I/O, mutation / fragment
//!   helpers used by the synthetic UniProt generator.
//! * [`smiles`] — a real SMILES lexer + parser covering the organic subset,
//!   brackets, branches, ring closures, and aromatics, plus a serializer.
//! * [`molecule`] — molecular graphs with descriptor calculators
//!   (molecular weight, rotatable bonds, H-bond donors/acceptors and a
//!   logP estimate) feeding the docking and DTBA models.
//! * [`structure`] — 3-D structures (atom coordinates), geometry utilities
//!   (centroid, RMSD, grid boxes) used by the docking simulator, and a
//!   PDB-flavoured text round-trip.
//! * [`element`] — the chemical elements appearing in drug-like molecules.

// No `unwrap`/`expect` outside tests (DESIGN.md §5i).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

pub mod aminoacid;
pub mod element;
pub mod molecule;
pub mod sequence;
pub mod smiles;
pub mod structure;

pub use aminoacid::AminoAcid;
pub use element::Element;
pub use molecule::Molecule;
pub use sequence::ProteinSequence;
pub use smiles::{parse_smiles, write_smiles, SmilesError};
pub use structure::{Structure3D, Vec3};
